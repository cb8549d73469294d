"""Track and queue layouts from recursive layered separations.

The recursion assigns every vertex a (depth, label) pair: removed set Q
gets depth 0; each recursive call separates the current sample, labels
the separator vertices per layer, and recurses on the two strict sides.
Tracks are keyed by (layer mod 3, depth, label); within a track vertices
are ordered by layer, breaking ties by the preorder rank of the recursion
node that labelled them.  Queue layouts read the tracks left to right and
assign each edge the difference of its track indices.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .decomposition import (
    GenusDecompositionResult,
    LayeredDecomposition,
    _balanced_sides,
    _halving_bag,
    genus_layered_decomposition,
)
from .embedding import EmbeddedGraph
from .graphs import Graph, GraphInputError, Layering, Report, _ints, _stamped_components


class LayoutError(ValueError):
    """Raised when a layout invariant that should hold by construction
    fails."""


@dataclass(frozen=True)
class RecursionNode:
    """One recursive call and the separator vertices it labelled."""

    id: int
    parent: Optional[int]
    rank: int  # index among the parent's ordered children
    tree_depth: int
    separator: frozenset[int]


@dataclass(frozen=True)
class ComputeLabels:
    """Depth/label assignment produced by the separation recursion."""

    depth: dict[int, int]
    label: dict[int, int]
    node_of: dict[int, int]  # vertices of depth >= 1 only
    nodes: tuple[RecursionNode, ...]
    ell1: int
    ell2: int
    mode: str

    @property
    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)


def compute_recursion(
    g: Graph,
    layering: Layering,
    ld_minus_q: LayeredDecomposition,
    q: Iterable[int] = (),
    mode: str = "separation",
) -> ComputeLabels:
    """Run the labelling recursion on G with removed set Q.

    ``ld_minus_q`` must be a layered decomposition of G - Q whose layer
    indices agree with ``layering``.  Each call on a sample S removes a
    halving bag B and splits S - B into the components of G[S - B].
    Mode "separation" groups them into two children of at most 2/3 of S
    each (depth grows like log base 3/2); mode "separator" recurses on
    every component, each at most half of S (depth grows like log base
    2).

    Children are unions of components of G[S - B], so vertices sent to
    different children are non-adjacent.  Every edge therefore joins two
    vertices labelled at the same call or at an ancestor call and a
    descendant one, which is all the (layer, preorder rank) order within
    a track relies on; ``verify_track_layout`` checks the result.

    Data layout: a sample is a sorted vertex list.  One mark list,
    indexed by vertex and shared by every call, holds the id of the call
    whose sample a vertex is in, -1 while that call waits on the stack,
    and 0 once the vertex is labelled (and for Q).  A call stamps its
    sample, takes the stamped vertices of B (``outside`` plus the core,
    so root paths walk up from B's three corners and build no bag) and
    finds the components of the rest by a search over ``g.adjacency``
    that reads the stamps; a one-vertex sample is a leaf and skips both.
    The halving bag sorts the sample's ranks in
    ``TreeDecomposition.top_rank``.  Calls run from an explicit stack,
    children popped in rank order.  Cost: a call takes O(|S| log |S|)
    plus the degrees of S and the length of B's root paths; it never
    looks outside its sample and B.
    """
    if mode not in ("separation", "separator"):
        raise GraphInputError(f"unknown recursion mode {mode!r}")
    q = frozenset(q)
    for i, layer in enumerate(ld_minus_q.layering.layers):
        if not layer <= layering.layers[i]:
            raise GraphInputError(
                f"restricted layering disagrees with the global one at layer {i}"
            )
    ell2 = max(ld_minus_q.layered_width, 1)
    td = ld_minus_q.decomposition
    n = g.n

    depth: dict[int, int] = {}
    label: dict[int, int] = {}
    node_of: dict[int, int] = {}
    nodes: list[RecursionNode] = []
    layer_of = layering.layer_of

    def assign_labels(vs: Iterable[int], d: int, cap: int) -> None:
        per_layer: dict[int, list[int]] = {}
        for v in sorted(vs):
            per_layer.setdefault(layer_of[v], []).append(v)
        for vlist in per_layer.values():
            if len(vlist) > cap:
                raise LayoutError(
                    f"{len(vlist)} separator vertices in one layer exceeds {cap}"
                )
            for j, v in enumerate(vlist):
                depth[v] = d
                label[v] = j + 1

    ell1 = 0
    if q:
        per_layer_q: dict[int, int] = {}
        for v in q:
            i = layer_of[v]
            per_layer_q[i] = per_layer_q.get(i, 0) + 1
        ell1 = max(per_layer_q.values())
        assign_labels(q, 0, ell1)

    max_allowed_depth = 1 + (
        math.log(max(n, 2)) / math.log(1.5 if mode == "separation" else 2.0)
    )

    rest = [v for v in range(n) if v not in q]
    if not rest:
        return ComputeLabels(depth, label, node_of, (), ell1, ell2, mode)
    # a slot per vertex of G or of a bag: -1 waits in a sample not yet
    # reached; 0 is labelled, in Q or outside G
    mark = [0] * max(n, len(td.top_rank))
    for v in rest:
        mark[v] = -1
    adjacency = g.adjacency
    core = [v for v in td.core if mark[v]]
    stack: list[tuple[list[int], int, Optional[int], int]] = [(rest, 1, None, 0)]
    while stack:
        sample, d, parent, rank = stack.pop()
        if d > max_allowed_depth + 1e-9:
            raise LayoutError(f"recursion depth {d} exceeds the sample-shrink bound")
        me = len(nodes)
        idx = _halving_bag(td, sample)
        if len(sample) == 1:  # a leaf: B is the top bag of its one vertex
            mid, children = sample, []
            mark[sample[0]] = 0
        else:
            cur = me + 1
            for v in sample:
                mark[v] = cur
            mid = [v for v in td.outside(idx) if mark[v] == cur]
            mid += [v for v in core if mark[v] == cur]
            for v in mid:
                mark[v] = 0
            comps = _stamped_components(adjacency, mark, cur, -1, sample)
            # balance: separation children hold <= 2/3 of the sample,
            # separator children <= 1/2
            if mode == "separation":
                children = [
                    sorted(itertools.chain.from_iterable(comps[i] for i in side))
                    for side in _balanced_sides(list(map(len, comps)), len(sample))
                ]
                if any(3 * len(child) > 2 * len(sample) for child in children):
                    raise LayoutError("separation child exceeds 2/3 of the sample")
            else:
                children = [sorted(c) for c in comps]
                if any(2 * len(child) > len(sample) for child in children):
                    raise LayoutError("separator child exceeds 1/2 of the sample")
        nodes.append(RecursionNode(me, parent, rank, d, frozenset(mid)))
        assign_labels(mid, d, ell2)
        for v in mid:
            node_of[v] = me
        # popped in rank order, so node ids are preorder ranks
        for i in range(len(children) - 1, -1, -1):
            if children[i]:
                stack.append((children[i], d + 1, me, i))
    missing = len(mark) - mark.count(0)
    if missing:
        raise LayoutError(f"recursion left {missing} vertices unlabelled")
    return ComputeLabels(depth, label, node_of, tuple(nodes), ell1, ell2, mode)


def pipeline(
    eg: EmbeddedGraph, root: Iterable[int] = (0,)
) -> tuple[Graph, GenusDecompositionResult, ComputeLabels, tuple[float, float]]:
    """The chain every layout and colouring starts from: the layered
    decomposition of the embedded graph from the root clique, then the
    separation-mode recursion with Q the decomposition's apex paths.
    Returns (G, decomposition result, labels) and the wall seconds of the
    two stages."""
    g = eg.to_graph()
    t0 = time.perf_counter()
    res = genus_layered_decomposition(eg, root)
    t1 = time.perf_counter()
    labels = compute_recursion(
        g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode="separation"
    )
    return g, res, labels, (t1 - t0, time.perf_counter() - t1)


@dataclass(frozen=True)
class TrackLayout:
    """Ordered tracks; each vertex appears in exactly one."""

    tracks: tuple[tuple[int, ...], ...]

    @cached_property
    def track_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, track in enumerate(self.tracks):
            for v in track:
                if v in out:
                    raise GraphInputError(f"vertex {v} on two tracks")
                out[v] = i
        return out

    @cached_property
    def position_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for track in self.tracks:
            for j, v in enumerate(track):
                out[v] = j
        return out


def track_layout_from_compute(
    g: Graph, layering: Layering, labels: ComputeLabels
) -> TrackLayout:
    """Assemble the track layout keyed by (layer mod 3, depth, label).

    Each track is sorted by (layer, recursion node).  Node ids are
    preorder ranks, since a node is recorded before its children are
    visited in rank order, and the vertices of one track share their
    depth in the recursion tree; so ties within a layer are broken by
    the child rank at the first divergence of the two root paths.  Q
    (depth 0) has no node; its vertices on one track lie in distinct
    layers.
    """
    layer_of = layering.layer_of
    node_of = labels.node_of
    grouped: dict[tuple[int, int, int], list[int]] = {}
    for v in g.vertices():
        key = (layer_of[v] % 3, labels.depth[v], labels.label[v])
        grouped.setdefault(key, []).append(v)
    return TrackLayout(tuple(
        tuple(sorted(grouped[k], key=lambda v: (layer_of[v], node_of.get(v, -1))))
        for k in sorted(grouped)
    ))


def track_bound(n: int, ell1: int, ell2: int, mode: str = "separation") -> float:
    """Closed-form cap on the number of tracks the recursion can use."""
    base = 1.5 if mode == "separation" else 2.0
    return 3 * ell1 + 3 * ell2 * (1 + math.log(max(n, 2)) / math.log(base))


def _strict_inversions(items: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Sorted id pairs (i, j), i < j, of items (x, y, id) where one has
    the smaller x and the larger y.  Sorted by (x, y), some pair inverts
    iff some neighbour's y falls, so only a failing group pays for the
    pairwise listing (Heath and Rosenberg, SIAM J. Comput. 1992)."""
    items = sorted(items)
    if len(items) < 2 or all(a[1] <= b[1] for a, b in zip(items, items[1:])):
        return []
    return sorted(
        (min(i, j), max(i, j))
        for k, (x1, y1, i) in enumerate(items)
        for x2, y2, j in items[k + 1 :]
        if x1 < x2 and y2 < y1
    )


def verify_track_layout(g: Graph, tl: TrackLayout) -> Report:
    """Independent check: partition of V(G), no intra-track edge, no
    X-crossing.

    Two edges between one track pair X-cross iff their endpoint
    positions strictly invert; the tests keep the pairwise check over
    every edge pair as this check's oracle.
    """
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
    oriented: list[tuple[int, int]] = []  # edges from the lower track
    by_pair: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for u, v in g.sorted_edges:
        tu, tv = track_of[u], track_of[v]
        if tu == tv:
            violations.append(f"edge ({u},{v}) lies within track {tu}")
            continue
        if tu > tv:
            u, v = v, u
            tu, tv = tv, tu
        by_pair.setdefault((tu, tv), []).append((pos[u], pos[v], len(oriented)))
        oriented.append((u, v))
    for (tu, tv), items in by_pair.items():
        for a, b in _strict_inversions(items):
            (va, wa), (vb, wb) = oriented[a], oriented[b]
            violations.append(
                f"edges ({va},{wa}) and ({vb},{wb}) form an "
                f"X-crossing between tracks {tu} and {tv}"
            )
    return Report.of(violations)


@dataclass(frozen=True)
class QueueLayout:
    """Total vertex order plus an edge -> queue assignment."""

    order: tuple[int, ...]
    queue_of: dict[tuple[int, int], int]

    @cached_property
    def position_of(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    @property
    def queue_count(self) -> int:
        return len(set(self.queue_of.values())) if self.queue_of else 0


def queue_from_tracks(g: Graph, tl: TrackLayout) -> QueueLayout:
    """Queue layout with at most (tracks - 1) queues: concatenate the
    tracks and put each edge in the queue indexed by its track gap."""
    rep = verify_track_layout(g, tl)
    if not rep.ok:
        raise LayoutError(f"input is not a track layout: {rep.violations[0]}")
    order = tuple(v for track in tl.tracks for v in track)
    track_of = tl.track_of
    queue_of = {
        e: abs(track_of[e[0]] - track_of[e[1]]) - 1 for e in g.sorted_edges
    }
    return QueueLayout(order, queue_of)


def verify_queue_layout(g: Graph, ql: QueueLayout) -> Report:
    """Independent check: order covers V(G), every edge is assigned, and
    no two same-queue edges nest, i.e. strictly invert their positions;
    the tests keep the pairwise check as its oracle."""
    violations: list[str] = []
    if sorted(ql.order) != list(g.vertices()):
        violations.append("order is not a permutation of the vertex set")
        return Report.of(violations)
    pos = ql.position_of
    by_queue: dict[int, list[tuple[int, int]]] = {}
    for e in g.sorted_edges:
        if e not in ql.queue_of:
            violations.append(f"edge {e} assigned to no queue")
            continue
        l, r = sorted((pos[e[0]], pos[e[1]]))
        by_queue.setdefault(ql.queue_of[e], []).append((l, r))
    for qi, spans in by_queue.items():
        for a, b in _strict_inversions((l, r, k) for k, (l, r) in enumerate(spans)):
            violations.append(
                f"queue {qi} holds nested edges {spans[a]} and {spans[b]}"
            )
    return Report.of(violations)


# ---------------------------------------------------------------------------
# Text formats.
# Track layout: one line per track, "track_id: v0 v1 ...".
# Queue layout: "order: v0 v1 ..." then one line "u v queue_id" per edge.
# ---------------------------------------------------------------------------


def format_track_layout(tl: TrackLayout) -> str:
    lines = [
        f"{i}: " + " ".join(map(str, track))
        for i, track in enumerate(tl.tracks)
    ]
    return "\n".join(lines) + "\n"


def parse_track_layout(text: str) -> TrackLayout:
    tracks: dict[int, tuple[int, ...]] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        head, _, rest = ln.partition(":")
        try:
            tid = int(head)
            vs = tuple(map(int, rest.split()))
        except ValueError as exc:
            raise GraphInputError(f"bad track line {ln!r}") from exc
        if tid in tracks:
            raise GraphInputError(f"duplicate track id {tid}")
        tracks[tid] = vs
    if sorted(tracks) != list(range(len(tracks))):
        raise GraphInputError("track ids must be 0..t-1")
    return TrackLayout(tuple(tracks[i] for i in range(len(tracks))))


def format_queue_layout(ql: QueueLayout) -> str:
    lines = ["order: " + " ".join(map(str, ql.order))]
    for (u, v), qi in sorted(ql.queue_of.items()):
        lines.append(f"{u} {v} {qi}")
    return "\n".join(lines) + "\n"


def parse_queue_layout(text: str) -> QueueLayout:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("order:"):
        raise GraphInputError("queue layout must start with an order line")
    try:
        order = tuple(map(int, lines[0].split(":", 1)[1].split()))
    except ValueError as exc:
        raise GraphInputError(f"bad order line {lines[0]!r}") from exc
    queue_of: dict[tuple[int, int], int] = {}
    for ln in lines[1:]:
        u, v, qi = _ints(ln, "queue line", 3)
        queue_of[(min(u, v), max(u, v))] = qi
    return QueueLayout(order, queue_of)
