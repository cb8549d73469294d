import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.decomposition import (
    DecompositionError,
    LayeredDecomposition,
    TreeDecomposition,
    _balanced_sides,
    _halving_bag,
    format_layered_decomposition,
    genus_layered_decomposition,
    parse_layered_decomposition,
)
from layersep.generators import (
    cycle_graph,
    path_graph,
    random_planar_triangulation,
    random_tree,
    toroidal_grid,
)
from layersep.graphs import Graph, GraphInputError, Layering, Report, bfs_layering
from layersep.layouts import (
    ComputeLabels,
    LayoutError,
    QueueLayout,
    RecursionNode,
    TrackLayout,
    compute_recursion,
    _parse_queue_lines,
    format_queue_layout,
    format_track_layout,
    parse_queue_layout,
    parse_track_layout,
    pipeline,
    queue_from_tracks,
    track_bound,
    track_layout_from_compute,
    verify_queue_layout,
    verify_track_layout,
)
from tests.conftest import (
    changed_text,
    embedded_graphs,
    planar_pipeline,
    read_or_reject,
    small_graphs,
    torus_pipeline,
)


def test_compute_recursion_separation_mode():
    g, res, labels, _ = planar_pipeline(60)
    assert labels.mode == "separation"
    assert labels.ell1 <= 3 and labels.ell2 <= 3
    # labels bounded by the per-level width
    assert all(0 <= lab < 3 * labels.ell2 for lab in labels.label.values())
    # recursion depth respects the 2/3 shrink rate
    assert labels.max_depth <= math.ceil(math.log(g.n, 1.5)) + 1


def test_compute_recursion_separator_mode():
    g, res, _, _ = planar_pipeline(40)
    labels = compute_recursion(
        g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode="separator"
    )
    assert labels.mode == "separator"
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    assert verify_track_layout(g, tl).ok
    # separator mode halves, so the base-2 bound applies
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2, "separator")


def test_planar_track_layout_verified_and_bounded():
    for n in (10, 50, 150):
        g, _, labels, tl = planar_pipeline(n)
        assert verify_track_layout(g, tl).ok
        assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)


def test_torus_track_layout():
    g, res, labels, tl = torus_pipeline(4, 6)
    assert verify_track_layout(g, tl).ok
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)


def test_track_bound_formula():
    # 3*ell1 + 3*ell2*(1 + log_{3/2} n)
    assert track_bound(8, 1, 1, "separation") == pytest.approx(
        3 + 3 * (1 + math.log(8, 1.5))
    )
    assert track_bound(8, 1, 1, "separator") == pytest.approx(
        3 + 3 * (1 + math.log2(8))
    )


def test_verify_track_layout_catches_x_crossing():
    g = cycle_graph(6)
    good = TrackLayout(((0, 3), (1, 5), (2, 4)))
    assert verify_track_layout(g, good).ok
    # (0,1) and (3,4) cross between tracks 0 and 1
    bad = TrackLayout(((0, 3), (1, 4), (2, 5)))
    rep = verify_track_layout(g, bad)
    assert not rep.ok
    assert any("cross" in v for v in rep.violations)


def test_verify_track_layout_catches_missing_vertex():
    g = path_graph(3)
    rep = verify_track_layout(g, TrackLayout(((0, 2),)))
    assert not rep.ok


def test_verify_track_layout_catches_vertex_outside_graph():
    g = path_graph(4)
    good = TrackLayout(((0, 2), (1, 3)))
    assert verify_track_layout(g, good).ok
    rep = verify_track_layout(g, TrackLayout(((0, 2), (1, 3, 99))))
    assert not rep.ok
    assert any("99" in v and "not in G" in v for v in rep.violations)


def test_verify_track_layout_intra_track_edge():
    g = path_graph(2)
    rep = verify_track_layout(g, TrackLayout(((0, 1),)))
    assert not rep.ok


def test_queue_from_tracks_counts():
    g, _, _, tl = planar_pipeline(80)
    ql = queue_from_tracks(g, tl)
    assert verify_queue_layout(g, ql).ok
    assert ql.queue_count <= len(tl.tracks) - 1


def test_queue_from_tracks_rejects_bad_layout():
    g = cycle_graph(6)
    with pytest.raises(LayoutError):
        queue_from_tracks(g, TrackLayout(((0, 3), (1, 4), (2, 5))))


def test_verify_queue_layout_catches_nesting():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    ql = QueueLayout((0, 1, 2, 3), {(0, 3): 0, (1, 2): 0})
    assert not verify_queue_layout(g, ql).ok
    ql2 = QueueLayout((0, 1, 2, 3), {(0, 3): 0, (1, 2): 1})
    assert verify_queue_layout(g, ql2).ok


def _edge_bags(g: Graph) -> LayeredDecomposition:
    """A tree is its own width-1 layered decomposition: a bag per edge,
    each joined to the first earlier bag it meets."""
    layering = bfs_layering(g, [0])
    bags = tuple(frozenset(e) for e in sorted(g.edges))
    tree_edges = []
    for i, b in enumerate(bags):
        for j in range(i):
            if bags[j] & b:
                tree_edges.append((j, i))
                break
    return LayeredDecomposition(TreeDecomposition(bags, tuple(tree_edges)), layering)


def test_tree_layout_small():
    g = random_tree(30, seed=2)
    ld = _edge_bags(g)
    layering = ld.layering
    labels = compute_recursion(g, layering, ld, mode="separation")
    tl = track_layout_from_compute(g, layering, labels)
    assert verify_track_layout(g, tl).ok
    ql = queue_from_tracks(g, tl)
    assert verify_queue_layout(g, ql).ok


def test_track_layout_format_roundtrip():
    _, _, _, tl = planar_pipeline(20)
    assert parse_track_layout(format_track_layout(tl)) == tl


def test_queue_layout_format_roundtrip():
    g, _, _, tl = planar_pipeline(20)
    ql = queue_from_tracks(g, tl)
    back = parse_queue_layout(format_queue_layout(ql))
    assert back == ql


def test_parse_track_layout_rejects_garbage():
    with pytest.raises(GraphInputError):
        parse_track_layout("junk\n")


def test_verify_queue_layout_rejects_a_pair_that_is_not_an_edge():
    g = path_graph(3)
    text = "order: 0 1 2\n0 1 0\n1 2 0\n"
    assert verify_queue_layout(g, parse_queue_layout(text)).ok
    ql = parse_queue_layout(text + "0 2 7\n")
    assert ql.queue_count == 2
    rep = verify_queue_layout(g, ql)
    assert rep.violations == ("pair (0, 2) is not an edge but is assigned to queue 7",)
    assert rep == _pairwise_verify_queue_layout(g, ql)
    # one edge left out and a non-edge in its place: both are reported
    ql = QueueLayout((0, 1, 2), {(0, 1): 0, (0, 2): 0})
    assert verify_queue_layout(g, ql).violations == (
        "edge (1, 2) assigned to no queue",
        "pair (0, 2) is not an edge but is assigned to queue 0",
    )


def test_parse_queue_layout_rejects_an_edge_assigned_twice():
    with pytest.raises(GraphInputError, match="'1 0 4'"):
        parse_queue_layout("order: 0 1\n0 1 0\n1 0 4\n")


def test_parse_queue_layout_names_a_bad_order_line():
    with pytest.raises(GraphInputError, match="'order: 0 x'"):
        parse_queue_layout("order: 0 x\n")


@pytest.mark.parametrize("text, message", [
    ("order: 0 1 2\n0 1\n1 2 0 0\n", "bad queue line '0 1'"),  # 3 tokens a line on average
    ("order: 0 1 2\n0 1 0\n1 2\n", "bad queue line '1 2'"),
    ("order: 0 1\n0 1 x\n", "bad queue line '0 1 x'"),
    ("order: 0 1 2\n0 1 0\n1 0 4\n1 x 0\n", "bad queue line '1 x 0'"),  # before the repeat
    ("order: 0 1 2\n1 2 0\n0 1 1\n2 1 0\n", "edge (1, 2) assigned twice, again in '2 1 0'"),
])
def test_parse_queue_layout_names_the_bad_line(text, message):
    with pytest.raises(GraphInputError) as err:
        parse_queue_layout(text)
    assert str(err.value) == message
    assert _outcome(_per_line_parse_queue_layout, text) == message


@st.composite
def queue_layouts(draw):
    """A graph on at most 12 vertices and a queue layout of it, valid or
    not: a vertex order and a queue in 0..3 for each edge."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = tuple(draw(st.permutations(range(n))))
    queues = draw(st.lists(st.integers(0, 3), min_size=len(edges), max_size=len(edges)))
    return Graph.from_edges(n, edges), QueueLayout(order, dict(zip(edges, queues)))


@settings(max_examples=200, deadline=None)
@given(queue_layouts())
def test_queue_layout_text_round_trips(case):
    _, ql = case
    assert parse_queue_layout(format_queue_layout(ql)) == ql


def _per_line_parse_queue_layout(text):
    """Oracle for ``parse_queue_layout``: its order line, then every
    queue line through the per-line pass."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    head = parse_queue_layout(lines[0] if lines else "")
    return QueueLayout(head.order, _parse_queue_lines(lines[1:]))


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphInputError as exc:
        return str(exc)


_QUEUE_TOKENS = ("0", "1", "3", "11", "12", "-1", "00", "+2", "1.5", "x", "order:", ":", "")


@settings(max_examples=400, deadline=None)
@given(queue_layouts(), st.data())
def test_queue_text_mutations_raise_or_verify_like_the_oracle(case, data):
    """Every single-token or single-line change of a queue text either
    raises the per-line oracle's ``GraphInputError`` or reads as the
    oracle reads it, to a layout that the verifier judges as the pairwise
    check does; no other exception escapes."""
    g, ql = case
    text = changed_text(data, format_queue_layout(ql), _QUEUE_TOKENS)
    got = _outcome(parse_queue_layout, text)
    assert got == _outcome(_per_line_parse_queue_layout, text)
    if isinstance(got, QueueLayout):
        assert verify_queue_layout(g, got) == _pairwise_verify_queue_layout(g, got)


_TRACK_TOKENS = ("0", "1", "3", "11", "12", "-1", "00", "+2", "1.5", "x", "3:", ":", "")


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(),
    st.lists(st.lists(st.integers(0, 13), max_size=6).map(tuple), max_size=5),
    st.data(),
)
def test_track_text_changes_raise_or_verify(g, tracks, data):
    """A track layout, any vertex on any number of tracks, round-trips;
    every single-token or single-line change of its text raises
    ``GraphInputError`` or reads to a layout the verifier judges; no
    other exception escapes."""
    tl = TrackLayout(tuple(tracks))
    text = format_track_layout(tl)
    assert parse_track_layout(text) == tl
    if tracks:
        changed = changed_text(data, text, _TRACK_TOKENS)
        got = read_or_reject(parse_track_layout, lambda t: verify_track_layout(g, t), changed)
        assert got is None or isinstance(got, Report)


def _pairwise_verify_track_layout(g: Graph, tl: TrackLayout) -> Report:
    """Oracle for ``verify_track_layout``: every pair of edges sharing a
    pair of tracks is tested."""
    violations: list[str] = []
    try:
        track_of = tl.track_of
    except GraphInputError as exc:
        return Report.of([str(exc)])
    for v in g.vertices():
        if v not in track_of:
            violations.append(f"vertex {v} on no track")
    for v, t in track_of.items():
        if not 0 <= v < g.n:
            violations.append(f"vertex {v} on track {t} is not in G")
    if violations:
        return Report.of(violations)
    pos = tl.position_of
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in sorted(g.edges):
        tu, tv = track_of[u], track_of[v]
        if tu == tv:
            violations.append(f"edge ({u},{v}) lies within track {tu}")
            continue
        if tu > tv:
            u, v = v, u
            tu, tv = tv, tu
        by_pair.setdefault((tu, tv), []).append((u, v))
    for (tu, tv), pairs in by_pair.items():
        for a in range(len(pairs)):
            va, wa = pairs[a]
            for b in range(a + 1, len(pairs)):
                vb, wb = pairs[b]
                if (pos[va] - pos[vb]) * (pos[wa] - pos[wb]) < 0:
                    violations.append(
                        f"edges ({va},{wa}) and ({vb},{wb}) form an "
                        f"X-crossing between tracks {tu} and {tv}"
                    )
    return Report.of(violations)


def _pairwise_verify_queue_layout(g: Graph, ql: QueueLayout) -> Report:
    """Oracle for ``verify_queue_layout``: every pair of same-queue edges
    is tested for nesting."""
    violations: list[str] = []
    if sorted(ql.order) != list(g.vertices()):
        violations.append("order is not a permutation of the vertex set")
        return Report.of(violations)
    pos = ql.position_of
    by_queue: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(g.edges):
        if e not in ql.queue_of:
            violations.append(f"edge {e} assigned to no queue")
            continue
        l, r = sorted((pos[e[0]], pos[e[1]]))
        by_queue.setdefault(ql.queue_of[e], []).append((l, r))
    for e, qi in sorted(ql.queue_of.items()):
        if not g.has_edge(*e) or e[0] > e[1]:
            violations.append(f"pair {e} is not an edge but is assigned to queue {qi}")
    for qi, spans in by_queue.items():
        for a in range(len(spans)):
            la, ra = spans[a]
            for b in range(a + 1, len(spans)):
                lb, rb = spans[b]
                if (la < lb and rb < ra) or (lb < la and ra < rb):
                    violations.append(
                        f"queue {qi} holds nested edges {spans[a]} and {spans[b]}"
                    )
    return Report.of(violations)


def test_verifiers_match_pairwise_oracles_on_reversed_tracks():
    # every other track reversed: many crossings and nestings per group
    g, _, _, tl = planar_pipeline(150)
    rev = TrackLayout(tuple(t[::-1] if i % 2 else t for i, t in enumerate(tl.tracks)))
    rep = verify_track_layout(g, rev)
    assert not rep.ok and rep == _pairwise_verify_track_layout(g, rev)
    ql = QueueLayout(tuple(v for t in rev.tracks for v in t), queue_from_tracks(g, tl).queue_of)
    rep = verify_queue_layout(g, ql)
    assert not rep.ok and rep == _pairwise_verify_queue_layout(g, ql)


@settings(max_examples=40, deadline=None)
@given(embedded_graphs, st.data())
def test_verify_track_layout_matches_pairwise_oracle(eg, data):
    # swap the places of vertex pairs in a pipeline layout: a swap within
    # a track reorders it, one across tracks may also put an edge inside
    # a track
    g, res, labels, _ = pipeline(eg)
    tracks = [list(t) for t in track_layout_from_compute(g, res.ld.layering, labels).tracks]
    slot = {v: (i, j) for i, t in enumerate(tracks) for j, v in enumerate(t)}
    for _ in range(data.draw(st.integers(1, 4))):
        u = data.draw(st.integers(0, g.n - 1))
        same_track = data.draw(st.booleans())
        v = data.draw(st.sampled_from(tracks[slot[u][0]]) if same_track else st.integers(0, g.n - 1))
        (iu, ju), (iv, jv) = slot[u], slot[v]
        tracks[iu][ju], tracks[iv][jv] = v, u
        slot[u], slot[v] = (iv, jv), (iu, ju)
    tl = TrackLayout(tuple(map(tuple, tracks)))
    assert verify_track_layout(g, tl) == _pairwise_verify_track_layout(g, tl)


@settings(max_examples=40, deadline=None)
@given(embedded_graphs, st.data())
def test_verify_queue_layout_matches_pairwise_oracle(eg, data):
    # shuffle a window of a pipeline queue layout's order and move some
    # edges to other queues
    g, res, labels, _ = pipeline(eg)
    ql = queue_from_tracks(g, track_layout_from_compute(g, res.ld.layering, labels))
    order = list(ql.order)
    lo = data.draw(st.integers(0, g.n))
    hi = data.draw(st.integers(lo, min(g.n, lo + 20)))
    order[lo:hi] = data.draw(st.permutations(order[lo:hi]))
    edges = sorted(ql.queue_of)
    moves = st.tuples(st.sampled_from(edges), st.integers(0, ql.queue_count))
    queue_of = dict(ql.queue_of)
    queue_of.update(data.draw(st.lists(moves, max_size=3)))
    mutant = QueueLayout(tuple(order), queue_of)
    assert verify_queue_layout(g, mutant) == _pairwise_verify_queue_layout(g, mutant)


def _pipeline(eg, mode):
    g, res, labels, _ = pipeline(eg)
    if mode != "separation":
        labels = compute_recursion(
            g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode=mode
        )
    return g, res, labels


def _oracle_track_layout(g, layering, labels: ComputeLabels) -> TrackLayout:
    """Tracks ordered by comparing root paths of the recursion tree: within
    a layer, the child rank at the first divergence decides."""
    layer_of = layering.layer_of
    ancestors: dict[int, list[tuple[int, int]]] = {}

    def path(nid: int) -> list[tuple[int, int]]:
        # (node id, rank) pairs from the root down to nid
        if nid not in ancestors:
            node = labels.nodes[nid]
            base = [] if node.parent is None else path(node.parent)
            ancestors[nid] = base + [(nid, node.rank)]
        return ancestors[nid]

    def cmp(v: int, w: int) -> int:
        iv, iw = layer_of[v], layer_of[w]
        if iv != iw:
            return -1 if iv < iw else 1
        if v == w:
            return 0
        pv, pw = path(labels.node_of[v]), path(labels.node_of[w])
        for (nv, rv), (nw, rw) in zip(pv, pw):
            if nv != nw:
                assert rv != rw, "distinct recursion children share a rank"
                return -1 if rv < rw else 1
        raise AssertionError(f"vertices {v} and {w} share a layer and node")

    grouped: dict[tuple[int, int, int], list[int]] = {}
    for v in g.vertices():
        key = (layer_of[v] % 3, labels.depth[v], labels.label[v])
        grouped.setdefault(key, []).append(v)
    tracks = []
    for k in sorted(grouped):
        vs = grouped[k]
        if k[1] == 0:
            vs.sort(key=lambda v: layer_of[v])
        else:
            vs.sort(key=cmp_to_key(cmp))
        tracks.append(tuple(vs))
    return TrackLayout(tuple(tracks))


@pytest.mark.parametrize("mode", ["separation", "separator"])
def test_track_order_matches_root_path_oracle(mode):
    inputs = [random_planar_triangulation(n, seed=n) for n in (50, 200, 600)]
    inputs += [toroidal_grid(p, p) for p in (8, 12)]
    for eg in inputs:
        g, res, labels = _pipeline(eg, mode)
        tl = track_layout_from_compute(g, res.ld.layering, labels)
        assert tl == _oracle_track_layout(g, res.ld.layering, labels)


@settings(max_examples=30, deadline=None)
@given(embedded_graphs, st.sampled_from(["separation", "separator"]))
def test_recursion_split_properties(eg, mode):
    g, res, labels = _pipeline(eg, mode)
    bags = res.ld.decomposition.bags
    cap = Fraction(2, 3) if mode == "separation" else Fraction(1, 2)
    children: dict[int, list[int]] = {}
    for node in labels.nodes:
        if node.parent is not None:
            children.setdefault(node.parent, []).append(node.id)
    # a node's sample is its separator plus its children's samples;
    # nodes are numbered in preorder, so children come after their parent
    sample: dict[int, frozenset[int]] = {}
    for node in reversed(labels.nodes):
        kids = [sample[c] for c in children.get(node.id, [])]
        sample[node.id] = node.separator.union(*kids)
    assert sample.get(0, frozenset()) == frozenset(g.vertices()) - res.apex_paths
    separators = [node.separator for node in labels.nodes]
    assert sum(map(len, separators)) == len(frozenset().union(*separators))
    for node in labels.nodes:
        kids = [sample[c] for c in children.get(node.id, [])]
        assert any(node.separator <= bag for bag in bags)
        for kid in kids:
            assert len(kid) <= cap * len(sample[node.id])
        for a, b in itertools.combinations(kids, 2):
            assert not any(w in b for v in a for w in g.adjacency[v])


def test_recursion_n3200_smoke():
    g, _, labels, tl = planar_pipeline(3200)
    assert verify_track_layout(g, tl).ok
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)


def _oracle_components(g: Graph, allowed: frozenset[int]) -> list[frozenset[int]]:
    """Components of G[allowed] by set lookups, in order of least vertex."""
    seen: set[int] = set()
    comps = []
    for s in sorted(allowed):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _oracle_compute_recursion(g, layering, ld_minus_q, q=(), mode="separation") -> ComputeLabels:
    """Oracle for ``compute_recursion``: the recursion on frozensets, each
    call intersecting the whole halving bag with its sample and finding
    the components of the rest by set lookups."""
    q = frozenset(q)
    rest = frozenset(g.vertices()) - q
    ell2 = max(ld_minus_q.layered_width, 1)
    td = ld_minus_q.decomposition
    depth: dict[int, int] = {}
    label: dict[int, int] = {}
    node_of: dict[int, int] = {}
    nodes: list[RecursionNode] = []
    layer_of = layering.layer_of

    def assign_labels(vs, d, cap):
        per_layer: dict[int, list[int]] = {}
        for v in sorted(vs):
            per_layer.setdefault(layer_of[v], []).append(v)
        for vlist in per_layer.values():
            if len(vlist) > cap:
                raise LayoutError(f"{len(vlist)} separator vertices in one layer exceeds {cap}")
            for j, v in enumerate(vlist):
                depth[v] = d
                label[v] = j + 1

    ell1 = 0
    if q:
        per_layer_q: dict[int, int] = {}
        for v in q:
            per_layer_q[layer_of[v]] = per_layer_q.get(layer_of[v], 0) + 1
        ell1 = max(per_layer_q.values())
        assign_labels(q, 0, ell1)
    max_allowed_depth = 1 + math.log(max(g.n, 2)) / math.log(1.5 if mode == "separation" else 2.0)

    def rec(sample, d, parent, rank):
        if not sample:
            return
        if d > max_allowed_depth + 1e-9:
            raise LayoutError(f"recursion depth {d} exceeds the sample-shrink bound")
        bag = td.bags[_halving_bag(td, sample)]
        mid = bag & sample
        children = _oracle_components(g, sample - bag)
        if mode == "separation":
            sides = _balanced_sides([len(c) for c in children], len(sample))
            children = [frozenset().union(*(children[i] for i in side)) for side in sides]
        for child in children:
            if mode == "separation" and 3 * len(child) > 2 * len(sample):
                raise LayoutError("separation child exceeds 2/3 of the sample")
            if mode == "separator" and 2 * len(child) > len(sample):
                raise LayoutError("separator child exceeds 1/2 of the sample")
        me = len(nodes)
        nodes.append(RecursionNode(me, parent, rank, d, mid))
        assign_labels(mid, d, ell2)
        for v in mid:
            node_of[v] = me
        for i, child in enumerate(children):
            rec(child, d + 1, me, i)

    rec(rest, 1, None, 0)
    missing = rest - set(depth)
    if missing:
        raise LayoutError(f"recursion left {len(missing)} vertices unlabelled")
    return ComputeLabels(depth, label, node_of, tuple(nodes), ell1, ell2, mode)


def _both_recursions(g, layering, ld, q=(), mode="separation"):
    """(labels, oracle labels), or the messages of the errors both raise."""
    out = []
    for run in (compute_recursion, _oracle_compute_recursion):
        try:
            out.append(run(g, layering, ld, q, mode))
        except (LayoutError, DecompositionError) as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=40, deadline=None)
@given(
    embedded_graphs,
    st.sampled_from(["separation", "separator"]),
    st.sampled_from(["root paths", "parsed", "explicit"]),
)
def test_compute_recursion_matches_frozenset_oracle(eg, mode, bags):
    """Equal labels, nodes and separators on the root-path bags of the
    genus decomposition, on the bags parsed back from its text and on the
    same bags as a tuple of frozensets."""
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    ld = res.ld
    if bags == "parsed":
        ld = parse_layered_decomposition(format_layered_decomposition(ld))
    elif bags == "explicit":
        td = ld.decomposition
        ld = LayeredDecomposition(TreeDecomposition(tuple(td.bags), td.tree_edges), ld.layering)
    q = tuple(res.apex_paths)
    labels, oracle = _both_recursions(g, ld.layering, ld, q, mode)
    assert isinstance(labels, ComputeLabels) and labels == oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 80), st.integers(0, 10**6), st.sampled_from(["separation", "separator"]))
def test_compute_recursion_matches_oracle_on_edge_bags(n, seed, mode):
    """Explicit tuple bags, one per tree edge, with no removed set."""
    g = random_tree(n, seed)
    ld = _edge_bags(g)
    labels, oracle = _both_recursions(g, ld.layering, ld, (), mode)
    assert isinstance(labels, ComputeLabels) and labels == oracle


def test_compute_recursion_rejects_a_layer_over_the_cap():
    """The per-layer cap is the decomposition's layered width, so only a
    width that understates the bags can break it; one is planted."""
    g = path_graph(3)
    layering = Layering((frozenset(range(3)),))
    ld = LayeredDecomposition(TreeDecomposition.single_bag(range(3)), layering)
    ld.__dict__["layered_width"] = 2  # the cached width, understated
    labels, oracle = _both_recursions(g, layering, ld)
    assert labels == oracle == (LayoutError, "3 separator vertices in one layer exceeds 2")


def test_compute_recursion_rejects_a_sample_vertex_in_no_bag():
    g = path_graph(3)
    layering = Layering((frozenset(range(3)),))
    ld = LayeredDecomposition(TreeDecomposition.single_bag((0, 1)), layering)
    labels, oracle = _both_recursions(g, layering, ld)
    assert labels == oracle == (DecompositionError, "sample vertex 2 appears in no bag")
