"""3-dimensional grid drawings from track layouts.

Tracks map to vertical grid columns on the mod-p parabola (i, i^2 mod p)
for a prime p at least the track count: no three columns are collinear,
so segments between four distinct columns are never coplanar, segments
sharing a column meet only at the shared vertex, and crossings between a
track pair reduce to X-crossings, which the track layout excludes.  The
exact integer verifier, not this argument, is the authority.

The verifier groups segments by chord, the unordered pair of their
endpoints' xy points.  Open segments meet only where their open chords
do, so it checks segments of one chord for z order inversions as the
track verifier does, joins the segments of properly crossing chords on
their heights over the crossing point, hands collinear and vertical
chord pairs to the exact predicates and skips every other chord pair.
For K chords over N columns the orientations cost a few operations on
integers of at most 16*K bits per column (``_orientations``; wider once
coordinates span more than 90).  Then each chord pair whose lines cross
costs two list reads and a product, its candidates read off a byte of a
bitset at a time, and each crossing chord pair one height comparison
per segment, made inline (a hash join when both chords carry several).
The tests keep the O(m^2 + m*n) pairwise scan as the oracle
(``tests/test_drawing3d.py``); the two give the same report, order
included.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph, GraphInputError, Report, _ints
from .layouts import LayoutError, TrackLayout, _strict_inversions, verify_track_layout


class DrawingError(ValueError):
    """Raised when a drawing cannot be produced or verified."""


Point = tuple[int, int, int]
_MAX_TRIALS = 200  # seeded placements ``draw_from_tracks`` tries


@dataclass(frozen=True)
class GridDrawing3D:
    """Integer grid positions per vertex.  ``trials`` is how many seeded
    placements ``draw_from_tracks`` checked to find it, None for a drawing
    from elsewhere; equality ignores it."""

    position: dict[int, Point]
    trials: Optional[int] = field(default=None, compare=False)

    @cached_property
    def bounding_box(self) -> tuple[int, int, int]:
        pts = list(self.position.values())
        if not pts:
            return (0, 0, 0)
        return tuple(
            max(p[i] for p in pts) - min(p[i] for p in pts) + 1 for i in range(3)
        )

    @cached_property
    def volume(self) -> int:
        return math.prod(self.bounding_box)


def _smallest_prime_at_least(n: int) -> int:
    c = max(n, 2)
    while True:
        if all(c % d for d in range(2, int(math.isqrt(c)) + 1)):
            return c
        c += 1


def draw_from_tracks(g: Graph, tl: TrackLayout, seed: int = 0) -> GridDrawing3D:
    """Columns (i, i^2 mod p) for the smallest prime p >= t, with a
    globally injective z in [0, n).

    z ranks the vertices by (track position, tie-break): within a track
    z increases with the position, so crossings between a column pair
    reduce to X-crossings, which the layout excludes, and segments
    sharing a column meet only at shared vertices because no three
    columns are collinear.  Edges on four distinct columns can still be
    coplanar for unlucky tie-breaks, so construction is verify-driven:
    the tie-break and the track-to-column assignment are reshuffled
    (seeded, deterministic) until the exact verifier passes, at most
    ``_MAX_TRIALS`` times.  A trial is rejected at its first violation
    and accepted only when every check ran to the end without one; the
    drawing records how many trials that took.  The box is p x p x n, so
    volume <= 4 t^2 n.  Raises ``LayoutError`` when ``tl`` is not a track
    layout of g: the layouts drawn here are built, not read.
    """
    rep = verify_track_layout(g, tl)
    if not rep.ok:
        raise LayoutError(f"input track layout invalid: {rep.violations[0]}")
    import random

    t = max(len(tl.tracks), 1)
    p = _smallest_prime_at_least(t)
    rng = random.Random(seed)
    for trial in range(_MAX_TRIALS):
        tau = list(range(t))
        sigma = list(range(t))
        if trial:
            rng.shuffle(tau)
            rng.shuffle(sigma)
        items = []
        for i, track in enumerate(tl.tracks):
            for j, v in enumerate(track):
                items.append((j, tau[i], v, sigma[i]))
        items.sort()
        position: dict[int, Point] = {}
        for z, (_, _, v, x) in enumerate(items):
            position[v] = (x, (x * x) % p, z)
        if next(_drawing_violations(g, position, in_order=False), None) is None:
            return GridDrawing3D(position, trials=trial + 1)
    raise DrawingError(
        f"no crossing-free placement found in {_MAX_TRIALS} seeded trials"
    )


# ---------------------------------------------------------------------------
# Exact intersection predicates.
# ---------------------------------------------------------------------------


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Point, b: Point) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Point, b: Point) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def segments_intersect_int(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether the open segments p1p2 and q1q2 share a point.

    Integer arithmetic only: parameters are compared through sign tests
    on numerators against a positive denominator.
    """
    d1, d2 = _sub(p2, p1), _sub(q2, q1)
    r = _sub(q1, p1)
    n = _cross(d1, d2)
    if n == (0, 0, 0):
        # parallel; intersect only if collinear with overlapping interiors
        if _cross(d1, r) != (0, 0, 0):
            return False
        len2 = _dot(d1, d1)
        if len2 == 0:
            return False
        a, b = _dot(r, d1), _dot(_sub(q2, p1), d1)
        lo, hi = min(a, b), max(a, b)
        # open overlap of [0,len2] and [lo,hi] in the d1 parameterisation
        return max(0, lo) < min(len2, hi)
    if _dot(r, n) != 0:
        return False  # skew lines
    den = _dot(n, n)
    s_num = _dot(_cross(r, d2), n)
    t_num = _dot(_cross(r, d1), n)
    return 0 < s_num < den and 0 < t_num < den


def segment_through_point(p1: Point, p2: Point, v: Point) -> bool:
    """Whether v lies strictly inside the segment p1p2."""
    d = _sub(p2, p1)
    w = _sub(v, p1)
    if _cross(d, w) != (0, 0, 0):
        return False
    proj = _dot(w, d)
    return 0 < proj < _dot(d, d)


def verify_drawing(g: Graph, d: GridDrawing3D) -> Report:
    """Exact check: exactly the vertices of G placed, distinct positions,
    no open-segment pair intersection, no segment through a non-endpoint
    vertex.

    Segments are grouped by chord, the unordered pair of their endpoints'
    xy points, and only chord pairs whose open projections can meet are
    compared (see ``_segment_hits``).  The report lists the same
    violations, in the same order, as the pairwise scan over every edge
    pair and every edge-vertex pair that the tests keep as its oracle.
    """
    return Report.of(_drawing_violations(g, d.position))


def _drawing_violations(
    g: Graph, pos: dict[int, Point], in_order: bool = True
) -> Iterator[str]:
    """The violations ``verify_drawing`` reports, in order: an unplaced
    vertex, vertices outside G, shared points, then per sorted edge its
    intersections with later edges followed by the vertices strictly
    inside it.  With ``in_order`` false the segment violations come as
    they are found, so the first one costs no more than finding it."""
    for v in g.vertices():
        if v not in pos:
            yield f"vertex {v} unplaced"
            return
    if len(pos) > g.n:
        yield from (f"vertex {v} at {pos[v]} is not in G" for v in sorted(pos) if not 0 <= v < g.n)
        return
    seen: dict[Point, int] = {}
    for v in g.vertices():  # pos holds exactly G's vertices
        if pos[v] in seen:
            yield f"vertices {seen[pos[v]]} and {v} share {pos[v]}"
        seen[pos[v]] = v
    edges = g.sorted_edges
    hits = _segment_hits(g.n, pos, edges)
    for i, through, j in sorted(hits) if in_order else hits:
        u, v = edges[i]
        if through:
            yield f"edge ({u},{v}) passes through vertex {j}"
        else:
            yield f"edges ({u},{v}) and ({edges[j][0]},{edges[j][1]}) intersect"


def _ones(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        x ^= low
        yield low.bit_length() - 1


def _segment_hits(
    n: int, pos: dict[int, Point], edges: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, int, int]]:
    """``(i, 0, j)`` for each pair i < j of edges whose open segments meet
    and ``(i, 1, w)`` for each vertex w strictly inside edge i, unsorted
    and generated as they are found.

    A non-vertical open segment projects one-to-one onto its open chord
    in the xy plane, so two segments can meet only where their open
    chords do, and a vertex can lie inside a segment only if its xy
    point is interior to the chord.  Per pair of chords that leaves:

    * the same chord: one vertical plane, where two segments meet iff
      their z order strictly inverts or they are identical;
    * chords that cross properly (each strictly separates the other's
      endpoints): one crossing point, where the segments meet iff their
      heights agree;
    * collinear chords, and vertical (zero xy-length) chords at a point
      interior to the other chord or at the same point: the exact
      predicates on every segment pair;
    * anything else (disjoint chords, chords touching only at an end of
      one of them, vertical chords at different points): no meeting.

    ``_orientations`` gives per xy point its row of orientations
    orient(c, r) over all chords c and, from their signs, the bitsets of
    chords strictly left of, strictly right of and on whose line it lies.
    The crossing candidates of chord c1 = (p1, q1) are the chords whose
    line separates p1 from q1; a candidate c2 = (p2, q2) crosses c1 iff
    o1 = orient(c1, p2) and o2 = orient(c1, q2) have opposite signs.
    With o3 = orient(c2, p1) and o4 = orient(c2, q1), also read from the
    rows, the heights over the crossing point are (o3*zb - o4*za) /
    (o3 - o4) on c1 and (o1*zb - o2*za) / (o1 - o2) on c2, and o1 - o2 =
    o4 - o3, so a segment of c1 and one of c2 meet iff o3*zb - o4*za =
    o2*za' - o1*zb' (their four ends are coplanar).  When either chord
    has one segment, its key is compared with each of the other's; when
    both have several, the keys are joined on a hash.  All of it runs in
    the loop over candidates, with no call per chord pair.

    Cost: N times a few operations on K*w-bit integers for the rows, w
    the field width (at most 16 bits while coordinates span at most 90),
    read as lists while they hold at most ``_LIST_ROWS`` entries and as
    arrays of w-bit fields beyond; per chord one step per later
    candidate, found a byte at a time through ``_BIT_OFFSETS``; per
    crossing chord pair O(1) per segment; s log s per chord of s
    segments; plus the exact predicates on the degenerate pairs.  That
    is O(m^2 + m*n) in the worst case, when every vertex has its own xy
    point.
    """
    point_of: dict[tuple[int, int], int] = {}
    pt: list[int] = []  # vertex -> xy point index
    at: list[list[int]] = []  # xy point index -> vertices there, ascending
    for v in range(n):
        x, y, _ = pos[v]
        k = point_of.setdefault((x, y), len(at))
        if k == len(at):
            at.append([])
        at[k].append(v)
        pt.append(k)
    points = list(point_of)

    chord_of: dict[tuple[int, int], int] = {}
    ends: list[tuple[int, int]] = []  # chord -> (p, q) with p < q
    segs: list[list[tuple[int, int, int]]] = []  # chord -> (z at p, z at q, edge)
    vertical: dict[int, list[int]] = {}  # xy point -> edges with both ends there
    incident = [0] * len(points)  # xy point -> bitset of the chords ending there
    for i, (u, v) in enumerate(edges):
        p, q = pt[u], pt[v]
        if p == q:
            vertical.setdefault(p, []).append(i)
            continue
        if p > q:
            p, q, u, v = q, p, v, u
        c = chord_of.setdefault((p, q), len(ends))
        if c == len(ends):
            ends.append((p, q))
            segs.append([])
            incident[p] |= 1 << c
            incident[q] |= 1 << c
        segs[c].append((pos[u][2], pos[v][2], i))

    def exact(ids1, ids2) -> Iterator[tuple[int, int, int]]:
        for i in ids1:
            a, b = pos[edges[i][0]], pos[edges[i][1]]
            for j in ids2:
                if segments_intersect_int(a, b, pos[edges[j][0]], pos[edges[j][1]]):
                    yield (min(i, j), 0, max(i, j))

    def inside(ids, ws) -> Iterator[tuple[int, int, int]]:
        for i in ids:
            u, v = edges[i]
            for w in ws:
                if w != u and w != v and segment_through_point(pos[u], pos[v], pos[w]):
                    yield (i, 1, w)

    for r, ids in vertical.items():
        for k, i in enumerate(ids):
            yield from exact([i], ids[k + 1 :])
        yield from inside(ids, at[r])

    rows, left, right, on = _orientations(points, ends)
    if len(points) * len(ends) <= _LIST_ROWS:
        rows = [row if isinstance(row, list) else row.tolist() for row in rows]

    # the line of every chord in split[c] strictly separates the ends of c
    split = [(left[p] & right[q]) | (right[p] & left[q]) for p, q in ends]
    end_rows = [(rows[p], rows[q]) for p, q in ends]
    for c1, (at_p1, at_q1) in enumerate(end_rows):
        s1 = segs[c1]
        if len(s1) == 1:
            ((za1, zb1, i1),) = s1
        else:
            i1 = -1
            yield from _chord_inversions(s1)
        base = c1 + 1
        rest = split[c1] >> base
        # the chords c2 > c1 in split[c1], a byte of candidates at a time
        for byte in rest.to_bytes((rest.bit_length() + 7) >> 3, "little"):
            for off in _BIT_OFFSETS[byte]:
                c2 = base + off
                at_p2, at_q2 = end_rows[c2]
                o1 = at_p2[c1]
                o2 = at_q2[c1]
                if o1 * o2 >= 0:
                    continue  # the line of c1 does not separate the ends of c2
                o3 = at_p1[c2]
                o4 = at_q1[c2]
                s2 = segs[c2]
                if i1 >= 0:  # one segment on c1: compare its key with c2's
                    key = o3 * zb1 - o4 * za1
                    for za, zb, j in s2:
                        if o2 * za - o1 * zb == key:
                            yield (i1, 0, j) if i1 < j else (j, 0, i1)
                elif len(s2) == 1:  # one segment on c2: compare its key with c1's
                    ((za, zb, j),) = s2
                    key = o2 * za - o1 * zb
                    for za, zb, i in s1:
                        if o3 * zb - o4 * za == key:
                            yield (i, 0, j) if i < j else (j, 0, i)
                else:  # several on both: join the keys
                    keys: dict[int, list[int]] = {}
                    for za, zb, i in s1:
                        keys.setdefault(o3 * zb - o4 * za, []).append(i)
                    for za, zb, j in s2:
                        for i in keys.get(o2 * za - o1 * zb, ()):
                            yield (i, 0, j) if i < j else (j, 0, i)
            base += 8
        p1, q1 = ends[c1]
        for k in _ones((on[p1] & on[q1]) >> (c1 + 1)):  # collinear chords
            yield from exact(
                [i for *_, i in segs[c1]], [j for *_, j in segs[c1 + 1 + k]]
            )

    for r, (rx, ry) in enumerate(points):
        for c in _ones(on[r] ^ incident[r]):  # chords r is on, not an end of
            p, q = ends[c]
            (px, py), (qx, qy) = points[p], points[q]
            if not (
                0 < (rx - px) * (qx - px) + (ry - py) * (qy - py)
                < (qx - px) ** 2 + (qy - py) ** 2
            ):
                continue
            ids = [i for *_, i in segs[c]]
            yield from inside(ids, at[r])
            yield from exact(ids, vertical.get(r, ()))


# Per byte value, the offsets of its set bits, ascending.
_BIT_OFFSETS = [tuple(b for b in range(8) if x >> b & 1) for x in range(256)]
# Orientation tables of at most this many entries are read as list rows,
# which index faster than arrays but take about ten times the memory.
_LIST_ROWS = 1 << 18
# Per byte, "1" iff its top bit is set, and "1" iff it is clear.
_TOP_SET = b"0" * 128 + b"1" * 128
_TOP_CLEAR = b"1" * 128 + b"0" * 128
# Typecodes of signed integers of 1, 2, 4 and 8 bytes, in struct's
# standard sizes and, where this platform agrees, in array's.
_SIGNED = {
    w: c for w, c in ((1, "b"), (2, "h"), (4, "i"), (8, "q")) if array(c).itemsize == w
}


def _fields(
    k: int, wb: int
) -> tuple[Callable[..., bytes], Callable[[bytes], Sequence[int]]]:
    """(pack, unpack) between k signed integers and k little-endian
    two's complement fields of wb bytes each.  unpack returns an array,
    wb bytes per value, for the widths that have a typecode."""
    if wb in _SIGNED:
        code = _SIGNED[wb]

        def unpack_array(raw: bytes) -> array:
            row = array(code, raw)
            if sys.byteorder == "big":
                row.byteswap()
            return row

        return struct.Struct(f"<{k}{code}").pack, unpack_array

    def pack(*vals: int) -> bytes:
        return b"".join(v.to_bytes(wb, "little", signed=True) for v in vals)

    def unpack(raw: bytes) -> list[int]:
        return [int.from_bytes(raw[i : i + wb], "little", signed=True)
                for i in range(0, len(raw), wb)]

    return pack, unpack


def _orientations(
    points: list[tuple[int, int]], ends: list[tuple[int, int]]
) -> tuple[list[Sequence[int]], list[int], list[int], list[int]]:
    """Per xy point r: its row orient(c, r) over the chords c, and the
    bitsets of the chords with r strictly left of, strictly right of and
    on their lines (bit c is chord c).

    orient(c, r) = a*ry - b*rx + e is twice the signed area of (p, q, r)
    for chord c = (p, q).  Measured from the corner of the points' box,
    every orientation lies within 2*span^2, so it fits a w-bit field, and
    one integer holds a point's whole row: ry*A - rx*B + E, where A, B and
    E pack the chords' coefficients at bit c*w and E adds 2^(w-1) to each
    field.  A field's top bit is then clear iff orient < 0, and it stays
    set after subtracting one iff orient > 0; the top bytes read off as bit
    strings give the bitsets, and the fields, top bits flipped, the row.
    So a point costs a few operations on K*w-bit integers instead of K
    Python products.
    """
    k = len(ends)
    x0 = min((x for x, _ in points), default=0)
    y0 = min((y for _, y in points), default=0)
    span = max((max(x - x0, y - y0) for x, y in points), default=0)
    # bits per field: the magnitude, the sign, and a margin so that
    # subtracting one from a field never borrows from the next
    need = (2 * span * span).bit_length() + 2
    wb = next((b for b in _SIGNED if 8 * b >= need), -(-need // 8))  # bytes
    pack, unpack = _fields(k, wb)
    ones = int.from_bytes(pack(*[1] * k), "little")  # 1 in each field
    top = ones << 8 * wb - 1
    coef: tuple[list[int], list[int], list[int]] = ([], [], [])
    for p, q in ends:
        (px, py), (qx, qy) = points[p], points[q]
        coef[0].append(qx - px)
        coef[1].append(qy - py)
        coef[2].append((qy - py) * (px - x0) - (qx - px) * (py - y0))
    # flipping the top bit of a two's complement field adds 2^(w-1) to it:
    # A and B drop that again, E keeps it
    big_a, big_b, big_e = (int.from_bytes(pack(*col), "little") ^ top for col in coef)
    big_a -= top
    big_b -= top

    rows, left, right, on = [], [], [], []
    full = (1 << k) - 1
    nb = k * wb
    for rx, ry in points:
        t = (ry - y0) * big_a - (rx - x0) * big_b + big_e
        # the top byte of each field, chord k-1 first; b"0" is the empty set
        lft = int((t - ones).to_bytes(nb, "big")[::wb].translate(_TOP_SET) or b"0", 2)
        rgt = int(t.to_bytes(nb, "big")[::wb].translate(_TOP_CLEAR) or b"0", 2)
        left.append(lft)
        right.append(rgt)
        on.append(full ^ lft ^ rgt)
        rows.append(unpack((t ^ top).to_bytes(nb, "little")))
    return rows, left, right, on


def _chord_inversions(
    segs: list[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int]]:
    """Pairs of segments on one non-vertical chord that meet: segments
    between the same two vertical lines meet inside iff their heights
    strictly swap order, or everywhere iff they are identical.  Sorted,
    neither happens when the heights at the second end strictly rise."""
    segs.sort()
    if all(a[1] < b[1] for a, b in zip(segs, segs[1:])):
        return
    for _, same in groupby(segs, key=itemgetter(0, 1)):
        ids = [i for *_, i in same]  # ascending
        yield from ((i, 0, j) for k, i in enumerate(ids) for j in ids[k + 1 :])
    yield from ((i, 0, j) for i, j in _strict_inversions(segs))


# ---------------------------------------------------------------------------
# Volume accounting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeReport:
    box: tuple[int, int, int]
    volume: int
    track_count: Optional[int]
    upper_bound: Optional[int]  # 4 t^2 n
    bound_ok: Optional[bool]
    lower_floor: Optional[Fraction]  # (n+m)/8, information-theoretic floor


def volume_report(
    d: GridDrawing3D,
    g: Optional[Graph] = None,
    track_count: Optional[int] = None,
) -> VolumeReport:
    n = len(d.position)
    upper = bound_ok = None
    if track_count is not None:
        upper = 4 * track_count * track_count * n
        bound_ok = d.volume <= upper
    floor = None
    if g is not None:
        floor = Fraction(g.n + g.m, 8)
    return VolumeReport(d.bounding_box, d.volume, track_count, upper, bound_ok, floor)


# ---------------------------------------------------------------------------
# Text format and static exports.
# ---------------------------------------------------------------------------


def format_drawing(d: GridDrawing3D) -> str:
    lines = [
        f"{v} {x} {y} {z}" for v, (x, y, z) in sorted(d.position.items())
    ]
    return "\n".join(lines) + "\n"


def parse_drawing(text: str) -> GridDrawing3D:
    position: dict[int, Point] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        v, x, y, z = _ints(ln, "drawing line", 4)
        if v in position:
            raise GraphInputError(f"vertex {v} placed twice")
        position[v] = (x, y, z)
    return GridDrawing3D(position)


def export_svg(g: Graph, d: GridDrawing3D, scale: int = 20) -> str:
    """Orthographic projection (x + z/3, y + z/3) as an SVG line set."""
    def proj(p: Point) -> tuple[float, float]:
        return (scale * (p[0] + p[2] / 3 + 1), scale * (p[1] + p[2] / 3 + 1))

    pts = {v: proj(p) for v, p in d.position.items()}
    w = max((x for x, _ in pts.values()), default=0) + scale
    h = max((y for _, y in pts.values()), default=0) + scale
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}">'
    ]
    for u, v in g.sorted_edges:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="black" stroke-width="1"/>'
        )
    for v, (x, y) in sorted(pts.items()):
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2" fill="red"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export_obj(g: Graph, d: GridDrawing3D) -> str:
    """Wavefront OBJ with vertices and line elements."""
    order = sorted(d.position)
    index = {v: i + 1 for i, v in enumerate(order)}
    lines = [f"v {x} {y} {z}" for v in order for (x, y, z) in [d.position[v]]]
    lines.extend(f"l {index[u]} {index[v]}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"
