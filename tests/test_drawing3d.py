import hashlib
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep import drawing3d
from layersep.drawing3d import (
    GridDrawing3D,
    _cross,
    _dot,
    _sub,
    draw_from_tracks,
    export_obj,
    export_svg,
    format_drawing,
    parse_drawing,
    segment_through_point,
    segments_intersect_int,
    verify_drawing,
    volume_report,
)
from layersep.generators import Lcg, complete_graph, cycle_graph, path_graph
from layersep.graphs import Graph, Report
from layersep.layouts import LayoutError, TrackLayout
from tests.conftest import changed_text, planar_pipeline, read_or_reject, small_graphs, torus_pipeline


def segments_intersect_fraction(p1, p2, q1, q2) -> bool:
    """Rational-arithmetic oracle for ``segments_intersect_int``: solve
    for the meeting parameters exactly and compare the two hit points."""
    d1, d2 = _sub(p2, p1), _sub(q2, q1)
    r = _sub(q1, p1)
    n = _cross(d1, d2)
    if n == (0, 0, 0):
        if _cross(d1, r) != (0, 0, 0) or d1 == (0, 0, 0):
            return False
        len2 = Fraction(_dot(d1, d1))
        a = Fraction(_dot(r, d1))
        b = Fraction(_dot(_sub(q2, p1), d1))
        lo, hi = min(a, b), max(a, b)
        return max(Fraction(0), lo) < min(len2, hi)
    if _dot(r, n) != 0:
        return False
    den = Fraction(_dot(n, n))
    s = Fraction(_dot(_cross(r, d2), n)) / den
    t = Fraction(_dot(_cross(r, d1), n)) / den
    if not (0 < s < 1 and 0 < t < 1):
        return False
    hit1 = tuple(Fraction(p1[i]) + s * d1[i] for i in range(3))
    hit2 = tuple(Fraction(q1[i]) + t * d2[i] for i in range(3))
    return hit1 == hit2


def _scan_drawing_violations(g, pos):
    """Oracle for ``verify_drawing``: every edge pair and every edge-vertex
    pair through the exact predicates, in report order."""
    for v in g.vertices():
        if v not in pos:
            yield f"vertex {v} unplaced"
            return
    outside = [
        f"vertex {v} at {pos[v]} is not in G" for v in sorted(pos) if not 0 <= v < g.n
    ]
    if outside:
        yield from outside
        return
    seen = {}
    for v in sorted(pos):
        if pos[v] in seen:
            yield f"vertices {seen[pos[v]]} and {v} share {pos[v]}"
        seen[pos[v]] = v
    edges = sorted(g.edges)
    for i, (u1, v1) in enumerate(edges):
        a, b = pos[u1], pos[v1]
        for u2, v2 in edges[i + 1 :]:
            if segments_intersect_int(a, b, pos[u2], pos[v2]):
                yield f"edges ({u1},{v1}) and ({u2},{v2}) intersect"
        for w in g.vertices():
            if w not in (u1, v1) and segment_through_point(a, b, pos[w]):
                yield f"edge ({u1},{v1}) passes through vertex {w}"


def assert_matches_oracle(g, pos):
    got = verify_drawing(g, GridDrawing3D(pos)).violations
    assert got == tuple(_scan_drawing_violations(g, pos))
    return got


def test_segments_cross_at_midpoint():
    assert segments_intersect_int((0, 0, 0), (2, 2, 2), (0, 0, 2), (2, 2, 0))
    assert segments_intersect_fraction(
        (0, 0, 0), (2, 2, 2), (0, 0, 2), (2, 2, 0)
    )


def test_segments_shared_endpoint_ok():
    # open segments: a common endpoint is not an intersection
    assert not segments_intersect_int((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0))
    assert not segments_intersect_fraction(
        (0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)
    )


def test_segments_skew_ok():
    assert not segments_intersect_int((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 2))


def test_collinear_overlap_detected():
    assert segments_intersect_int((0, 0, 0), (4, 0, 0), (2, 0, 0), (6, 0, 0))
    assert not segments_intersect_int((0, 0, 0), (2, 0, 0), (2, 0, 0), (4, 0, 0))


def test_segment_through_point():
    assert segment_through_point((0, 0, 0), (4, 4, 4), (2, 2, 2))
    assert not segment_through_point((0, 0, 0), (4, 4, 4), (1, 2, 3))
    assert not segment_through_point((0, 0, 0), (4, 4, 4), (0, 0, 0))


def test_predicates_agree_random():
    rng = Lcg(99)
    agree = 0
    for _ in range(1500):
        pts = [
            (rng.randrange(5), rng.randrange(5), rng.randrange(5))
            for _ in range(4)
        ]
        if pts[0] == pts[1] or pts[2] == pts[3]:
            continue
        a = segments_intersect_int(*pts)
        b = segments_intersect_fraction(*pts)
        assert a == b
        agree += 1
    assert agree > 1000


def test_draw_c6():
    g = cycle_graph(6)
    tl = TrackLayout(((0, 3), (1, 5), (2, 4)))
    d = draw_from_tracks(g, tl)
    assert verify_drawing(g, d).ok
    x, y, z = d.bounding_box
    assert x <= 3 and y <= 3 and z <= 6


def test_draw_k4():
    g = complete_graph(4)
    tl = TrackLayout(((0,), (1,), (2,), (3,)))
    d = draw_from_tracks(g, tl)
    assert verify_drawing(g, d).ok
    assert d.volume <= 4 * 16 * 4


def test_draw_single_edge():
    g = path_graph(2)
    d = draw_from_tracks(g, TrackLayout(((0,), (1,))))
    assert verify_drawing(g, d).ok


def test_draw_rejects_invalid_layout():
    # the layouts drawn are built, not read: a bad one is a construction fault
    g = cycle_graph(6)
    with pytest.raises(LayoutError):
        draw_from_tracks(g, TrackLayout(((0, 3), (1, 4), (2, 5))))


def test_draw_corpus_volume_bound():
    for n in (30, 100):
        g, _, _, tl = planar_pipeline(n)
        d = draw_from_tracks(g, tl)
        assert verify_drawing(g, d).ok
        t = len(tl.tracks)
        assert d.volume <= 4 * t * t * g.n


def test_draw_torus():
    g, _, _, tl = torus_pipeline(4, 4)
    d = draw_from_tracks(g, tl)
    assert verify_drawing(g, d).ok


def test_verify_drawing_negative():
    g = path_graph(4)
    bad = GridDrawing3D(
        {0: (0, 0, 0), 1: (2, 2, 2), 2: (0, 0, 2), 3: (2, 2, 0)}
    )
    assert not verify_drawing(g, bad).ok
    dup = GridDrawing3D({0: (0, 0, 0), 1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 1, 1)})
    assert not verify_drawing(g, dup).ok
    # vertex 2 sits inside edge (0,1)
    through = GridDrawing3D(
        {0: (0, 0, 0), 1: (4, 4, 4), 2: (2, 2, 2), 3: (0, 1, 0)}
    )
    assert not verify_drawing(g, through).ok


def test_verify_drawing_lists_violations_in_order():
    # per edge: its crossings with later edges, then vertices inside it
    g = cycle_graph(5)
    d = GridDrawing3D(
        {0: (0, 0, 0), 1: (2, 2, 2), 2: (0, 0, 2), 3: (2, 2, 0), 4: (1, 1, 1)}
    )
    assert verify_drawing(g, d).violations == (
        "edges (0,1) and (0,4) intersect",
        "edges (0,1) and (2,3) intersect",
        "edge (0,1) passes through vertex 4",
        "edges (2,3) and (3,4) intersect",
        "edge (2,3) passes through vertex 4",
    )


def test_draw_from_tracks_output_pinned():
    # the first seeded trial that passes the verifier is accepted, so the
    # drawing text is fixed for a given layout; at the default seed 0,
    # planar n = 30 and 80 and the 8x8 torus are accepted at trial 4, so a
    # check that flips the verdict on any earlier trial changes their text
    for (g, _, _, tl), digest in (
        (planar_pipeline(30), "d66053ffc84d3bb8"),
        (planar_pipeline(60), "7b1d6320dab4d7b5"),
        (torus_pipeline(4, 4), "81ab07f854e15139"),
        (planar_pipeline(80), "d553062e9046901f"),
        (torus_pipeline(8, 8), "f349f816fcbbb910"),
    ):
        text = format_drawing(draw_from_tracks(g, tl))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_verify_drawing_catches_vertex_outside_graph():
    g = path_graph(3)
    good = {0: (0, 0, 0), 1: (1, 0, 0), 2: (1, 1, 0)}
    assert verify_drawing(g, GridDrawing3D(good)).ok
    rep = verify_drawing(g, GridDrawing3D({**good, 99: (5, 5, 5)}))
    assert not rep.ok
    assert any("99" in v and "not in G" in v for v in rep.violations)


def test_volume_report():
    g, _, _, tl = planar_pipeline(40)
    d = draw_from_tracks(g, tl)
    rep = volume_report(d, g=g, track_count=len(tl.tracks))
    assert rep.bound_ok
    assert rep.volume == d.volume
    assert rep.upper_bound == 4 * len(tl.tracks) ** 2 * g.n
    assert rep.lower_floor > 0


def test_drawing_format_roundtrip():
    g, _, _, tl = planar_pipeline(20)
    d = draw_from_tracks(g, tl)
    back = parse_drawing(format_drawing(d))
    assert back.position == d.position
    # the trial count is not part of the drawing: the text and equality ignore it
    assert back.trials is None and d.trials >= 1 and back == d
    svg = export_svg(g, d)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    obj = export_obj(g, d)
    assert obj.count("\nl ") + obj.startswith("l ") == len(g.edges)


@st.composite
def column_drawings(draw):
    """Graphs on at most 16 vertices placed on 1-6 xy columns of a 4x4 box
    with z in [0, 4]: vertical segments, collinear columns and overlaps,
    shared points and vertices inside segments are all common."""
    n = draw(st.integers(1, 16))
    cols = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=6))
    pos = {v: (*draw(st.sampled_from(cols)), draw(st.integers(0, 4))) for v in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=40)) if pairs else set()
    return Graph.from_edges(n, edges), pos


@settings(max_examples=300, deadline=None)
@given(column_drawings())
def test_verify_drawing_matches_scan_on_column_drawings(case):
    got = assert_matches_oracle(*case)
    # the as-found order of the draw loop's check yields the same
    # violations, each once
    assert sorted(drawing3d._drawing_violations(*case, in_order=False)) == sorted(got)


@pytest.mark.parametrize("scale", [1, 7, 3000, 10**6, 2**40, 3**50])
def test_verify_drawing_meetings_at_every_scale(scale):
    # edges (0,1) and (2,3) cross at (1,1) at height 1 and meet there,
    # edge (4,5) crosses both at height 2; edge (4,6) passes through
    # vertex 1; vertex 9, an end of edge (9,10), lies inside edge (7,8)
    g = Graph.from_edges(11, [(0, 1), (2, 3), (4, 5), (4, 6), (7, 8), (9, 10)])
    pos = {0: (0, 0, 0), 1: (2, 2, 2), 2: (0, 2, 2), 3: (2, 0, 0), 4: (0, 1, 0),
           5: (2, 1, 4), 6: (4, 3, 4), 7: (4, 0, 0), 8: (6, 0, 2), 9: (5, 0, 1),
           10: (5, 2, 5)}
    pos = {v: (scale * x - 5, scale * y + 3, z) for v, (x, y, z) in pos.items()}
    assert assert_matches_oracle(g, pos) == (
        "edges (0,1) and (2,3) intersect",
        "edge (4,6) passes through vertex 1",
        "edge (7,8) passes through vertex 9",
    )


@settings(max_examples=100, deadline=None)
@given(
    column_drawings(),
    st.sampled_from([7, 3000, 10**6, 2**40, 3**50]),
    st.integers(-(2**70), 2**70),
)
def test_verify_drawing_matches_scan_on_scaled_column_drawings(case, scale, shift):
    # an affine map of the xy plane keeps every meeting; the scales take
    # the orientations through each packed field width and past 64 bits
    g, pos = case
    pos = {v: (scale * x + shift, scale * y - shift, z) for v, (x, y, z) in pos.items()}
    assert_matches_oracle(g, pos)


def _check_every_trial(g, tl, seed):
    """Run ``draw_from_tracks`` with every trial's placement checked
    against the scan oracle."""
    verdicts = []
    real = drawing3d._drawing_violations

    def checked(g, pos, in_order=True):
        # every trial's placement gets the full report, compared with the
        # scan; the trial's own check may stop at its first violation
        got = list(real(g, pos))
        assert got == list(_scan_drawing_violations(g, pos))
        assert (next(real(g, pos, in_order), None) is None) == (not got)
        verdicts.append(bool(got))
        return real(g, pos, in_order)

    with mock.patch.object(drawing3d, "_drawing_violations", checked):
        d = draw_from_tracks(g, tl, seed=seed)
    # the loop stops at the first accepted trial, and counts every trial
    assert all(verdicts[:-1]) and not verdicts[-1]
    assert d.trials == len(verdicts)


@settings(max_examples=8, deadline=None)
@given(
    st.one_of(st.just(None), st.tuples(st.integers(30, 60), st.integers(0, 3))),
    st.integers(0, 2**16),
)
def test_verify_drawing_matches_scan_on_every_draw_trial(planar, seed):
    g, _, _, tl = torus_pipeline(4, 4) if planar is None else planar_pipeline(*planar)
    _check_every_trial(g, tl, seed)


def test_verify_drawing_matches_scan_on_every_draw_trial_of_the_wide_torus():
    # the 12x12 torus pipeline lays out on 47 tracks, the most columns of
    # the benchmark's drawings; seed 0 rejects one trial and accepts one
    g, _, _, tl = torus_pipeline(12, 12)
    assert len(tl.tracks) == 47
    _check_every_trial(g, tl, 0)


@lru_cache(maxsize=None)
def _pipeline_drawing(which):
    g, _, _, tl = torus_pipeline(4, 4) if which is None else planar_pipeline(which)
    return g, draw_from_tracks(g, tl).position


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([None, 30, 45]),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                  st.one_of(st.none(), st.integers(-1, 60))),
        min_size=1, max_size=3,
    ),
)
def test_verify_drawing_matches_scan_on_moved_vertices(which, moves):
    # each move puts a vertex on another vertex's column, at that vertex's
    # point when no height is given
    g, pos = _pipeline_drawing(which)
    pos = dict(pos)
    for a, b, z in moves:
        x, y, zb = pos[b % g.n]
        pos[a % g.n] = (x, y, zb if z is None else z)
    assert_matches_oracle(g, pos)


def test_verify_drawing_vertical_segment():
    # edges (0,1) and (4,5) are vertical on one column and overlap, each
    # holds an end of the other, and edge (2,3) crosses (0,1)
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    pos = {0: (0, 0, 0), 1: (0, 0, 4), 2: (-1, 0, 2), 3: (1, 0, 2),
           4: (0, 0, 3), 5: (0, 0, 6)}
    assert assert_matches_oracle(g, pos) == (
        "edges (0,1) and (2,3) intersect",
        "edges (0,1) and (4,5) intersect",
        "edge (0,1) passes through vertex 4",
        "edge (4,5) passes through vertex 1",
    )


def test_verify_drawing_three_collinear_columns():
    # columns (0,0) ... (3,3) on one line: edges (0,2) and (1,3) overlap
    # and each holds an end of the other; edge (4,5) lies beside them
    g = Graph.from_edges(6, [(0, 2), (1, 3), (4, 5)])
    pos = {0: (0, 0, 0), 1: (1, 1, 0), 2: (2, 2, 0), 3: (3, 3, 0),
           4: (0, 0, 1), 5: (2, 2, 3)}
    assert assert_matches_oracle(g, pos) == (
        "edges (0,2) and (1,3) intersect",
        "edge (0,2) passes through vertex 1",
        "edge (1,3) passes through vertex 2",
    )


@pytest.mark.parametrize("meet", [True, False])
def test_verify_drawing_joins_chords_of_several_segments(meet):
    # chords (0,0)-(3,3) and (0,2)-(4,0) cross properly at (4/3, 4/3),
    # 4/9 of the way along the first and 1/3 along the second; each
    # carries three segments whose heights there are 4, 13, 22 and 1,
    # 13 (or 13 1/3), 23, so exactly one pair meets (or none does)
    a, b, c, d = (0, 0), (3, 3), (0, 2), (4, 0)
    first = [(0, 9), (9, 18), (18, 27)]
    second = [(0, 3), (12, 15 if meet else 16), (20, 29)]
    pos, edges = {}, []
    for (p, q), heights in (((a, b), first), ((c, d), second)):
        for zp, zq in heights:
            u = len(pos)
            pos[u], pos[u + 1] = (*p, zp), (*q, zq)
            edges.append((u, u + 1))
    g = Graph.from_edges(len(pos), edges)
    assert assert_matches_oracle(g, pos) == (
        ("edges (2,3) and (8,9) intersect",) if meet else ()
    )


@pytest.mark.parametrize("which", [None, 30, 45])
def test_verify_drawing_reads_array_rows_like_list_rows(which):
    # past ``_LIST_ROWS`` orientations the rows stay arrays; force that on
    # pipeline drawings, as placed and with vertices moved onto other
    # vertices' columns and points
    g, pos = _pipeline_drawing(which)
    placements = [dict(pos)]
    for a, b in ((0, 1), (3, 7), (5, 2)):
        moved = dict(pos)
        moved[a] = pos[b]
        moved[b + 1] = (*pos[a][:2], pos[b + 1][2])
        placements.append(moved)
    with mock.patch.object(drawing3d, "_LIST_ROWS", 0):
        for p in placements:
            assert_matches_oracle(g, p)


_DRAWING_TOKENS = ("0", "1", "-3", "12", "-1", "00", "+2", "1.5", "x", "")


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(),
    st.dictionaries(st.integers(0, 13), st.tuples(*[st.integers(-3, 5)] * 3), max_size=14),
    st.data(),
)
def test_drawing_text_changes_raise_or_verify(g, position, data):
    """A drawing of any vertices, points shared or not, round-trips; every
    single-token or single-line change of its text raises
    ``GraphInputError`` or reads to a drawing the verifier judges; no
    other exception escapes."""
    d = GridDrawing3D(position)
    text = format_drawing(d)
    assert parse_drawing(text) == d
    if position:
        changed = changed_text(data, text, _DRAWING_TOKENS)
        got = read_or_reject(parse_drawing, lambda dr: verify_drawing(g, dr), changed)
        assert got is None or isinstance(got, Report)
