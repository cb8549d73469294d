"""3-dimensional grid drawings from track layouts.

Tracks map to vertical grid columns on the mod-p parabola (i, i^2 mod p)
for a prime p at least the track count: no three columns are collinear,
so segments between four distinct columns are never coplanar, segments
sharing a column meet only at the shared vertex, and crossings between a
track pair reduce to X-crossings, which the track layout excludes.  The
exact integer verifier, not this argument, is the authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .graphs import Graph, GraphInputError, Report
from .layouts import TrackLayout, verify_track_layout


class DrawingError(ValueError):
    """Raised when a drawing cannot be produced or verified."""


Point = tuple[int, int, int]


@dataclass(frozen=True)
class GridDrawing3D:
    """Integer grid positions per vertex."""

    position: dict[int, Point]

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


def draw_from_tracks(
    g: Graph, tl: TrackLayout, seed: int = 0x5EED, max_trials: int = 200
) -> GridDrawing3D:
    """Columns (i, i^2 mod p) for the smallest prime p >= t, with a
    globally injective z in [0, n).

    z ranks the vertices by (track position, tie-break): within a track
    z increases with the position, so crossings between a column pair
    reduce to X-crossings, which the layout excludes, and segments
    sharing a column meet only at shared vertices because no three
    columns are collinear.  Edges on four distinct columns can still be
    coplanar for unlucky tie-breaks, so construction is verify-driven:
    the tie-break and the track-to-column assignment are reshuffled
    (seeded, deterministic) until the exact verifier passes.  The box is
    always p x p x n, hence volume <= p^2 n <= 4 t^2 n.
    """
    rep = verify_track_layout(g, tl)
    if not rep.ok:
        raise GraphInputError(f"input track layout invalid: {rep.violations[0]}")
    import random

    t = max(len(tl.tracks), 1)
    p = _smallest_prime_at_least(t)
    rng = random.Random(seed)
    for trial in range(max_trials):
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
        if next(_drawing_violations(g, position), None) is None:
            return GridDrawing3D(position)
    raise DrawingError(
        f"no crossing-free placement found in {max_trials} seeded trials"
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
    """Exhaustive exact check: exactly the vertices of G placed, distinct
    positions, no open-segment pair intersection, no segment through a
    non-endpoint vertex."""
    return Report.of(_drawing_violations(g, d.position))


def _drawing_violations(g: Graph, pos: dict[int, Point]) -> Iterator[str]:
    """The violations ``verify_drawing`` reports, lazily and in order, so
    that the construction can stop at the first one."""
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
    seen: dict[Point, int] = {}
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
        floor = Fraction(g.n + len(g.edges), 8)
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
        try:
            v, x, y, z = map(int, ln.split())
        except ValueError as exc:
            raise GraphInputError(f"bad drawing line {ln!r}") from exc
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
    for u, v in sorted(g.edges):
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
    lines.extend(f"l {index[u]} {index[v]}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
