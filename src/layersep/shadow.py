"""Rich tree decompositions and shadow-complete layerings.

A tree decomposition is k-rich if adjacent bags intersect in a clique of
at most k vertices.  Rich decompositions yield shadow-complete layerings
(every layer-component's neighbourhood in the previous layer is a
clique) whose layers carry (k-1)-rich decompositions, so track layouts
and nonrepetitive colourings compose level by level: each level costs a
factor 3c^(s+1) in tracks, and in colours the layer-pattern symbol
count (4 when the four-symbol word is found).

The recursion is planned once per (G, rd): a tree of pieces.  A
disconnected piece is split into its components at every richness, a
piece of at most one vertex or a connected 0-rich piece is a leaf, and
every other piece is split into the layers of its shadow layering.  A
bag solver therefore only ever sees a connected 0-rich piece or a piece
of at most one vertex; both drivers default to the built-in leaf, one
track and one colour per vertex.  The plan is held by ``rd`` (O(total
piece size), freed with it) and shared by ``rich_shadow_layering`` and
both recursive drivers, which fold it with their leaf solver and their
composition.

Each level is built in one pass: the layering files every bag under the
layer of its fresh part as it walks the tree, so a layer's decomposition
holds only the bags that meet it, and a disconnected piece's
decomposition is split among all its components at once.  A leaf's
vertices are numbered 0..s-1, so equal leaves are equal graphs (every
K_s of a chordal graph is one leaf), and a fold solves each distinct
leaf graph once: a leaf solver must be a function of its graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

from .decomposition import TreeDecomposition, _tree_lists, validate_tree_decomposition
from .graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    _components_within,
    validate_layering,
)
from .layouts import TrackLayout
from .nonrep import Colouring, layer_pattern_colouring, shadow_nonrep_compose


class ShadowError(ValueError):
    """Raised when richness or shadow-completeness preconditions fail."""


@dataclass(frozen=True)
class RichDecomposition:
    """Tree decomposition whose adjacent bags meet in small cliques."""

    decomposition: TreeDecomposition

    @cached_property
    def richness(self) -> int:
        td = self.decomposition
        return max(
            (len(td.bags[x] & td.bags[y]) for x, y in td.tree_edges),
            default=0,
        )

    @cached_property
    def _memo(self) -> dict[tuple[str, Graph], Any]:
        """Shadow layerings and recursion plans built from this
        decomposition, keyed by kind and graph; see ``_memoised``."""
        return {}


def _memoised(kind: str, g: Graph, rd: RichDecomposition, build: Callable) -> Any:
    """``build(g, rd)``, stored on ``rd`` so later calls for an equal G
    share it.  Only a result is stored: a call that raises raises again
    on the next call, with every check rerun."""
    memo = rd._memo
    key = (kind, g)
    if key not in memo:
        memo[key] = build(g, rd)
    return memo[key]


def validate_rich(g: Graph, rd: RichDecomposition, k: Optional[int] = None) -> Report:
    """Check the decomposition plus the clique condition on every tree
    edge intersection, each computed once; an intersection of at most
    one vertex is a clique, and a larger one is tested pair by pair
    against G's edges."""
    violations = list(validate_tree_decomposition(g, rd.decomposition).violations)
    td = rd.decomposition
    bags, edges = td.bags, g.edges
    for x, y in sorted(td.tree_edges):
        inter = bags[x] & bags[y]
        if len(inter) > 1:
            vs = sorted(inter)
            if not all((u, w) in edges for i, u in enumerate(vs) for w in vs[i + 1 :]):
                violations.append(f"bags {x},{y} intersect in a non-clique")
        if k is not None and len(inter) > k:
            violations.append(
                f"bags {x},{y} intersect in {len(inter)} > {k} vertices"
            )
    return Report.of(violations)


@dataclass(frozen=True)
class ShadowLayering:
    """Shadow-complete layering plus one rich decomposition per layer,
    each contained in the parent decomposition."""

    layering: Layering
    per_layer: tuple[RichDecomposition, ...]


def _contract_redundant(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges whose bags nest, keeping the larger bag.

    Each step merges the least bag x that has a neighbour y with
    bags[x] <= bags[y] into the least such y.  Bags never change, so
    whether a bag can merge changes only with its adjacency: a min-heap
    holds every bag not checked since its adjacency last changed.  When
    no tree edge joins nested bags nothing merges, and ``td`` itself is
    returned.
    """
    bags = td.bags
    if not any(bags[x] <= bags[y] or bags[y] <= bags[x] for x, y in td.tree_edges):
        return td
    bags = list(bags)
    adj = list(map(set, _tree_lists(len(bags), td.tree_edges)))
    alive = set(range(len(bags)))
    todo = list(range(len(bags)))  # sorted, hence a heap
    while todo:
        x = heapq.heappop(todo)
        if x not in alive:
            continue
        y = next((y for y in sorted(adj[x]) if bags[x] <= bags[y]), None)
        if y is None:
            continue
        # merge x into y
        for z in adj[x]:
            if z != y:
                adj[z].discard(x)
                adj[z].add(y)
                adj[y].add(z)
                heapq.heappush(todo, z)
        adj[y].discard(x)
        alive.discard(x)
        adj[x] = set()
        heapq.heappush(todo, y)
    order = sorted(alive)
    remap = {old: i for i, old in enumerate(order)}
    edges = set()
    for x in order:
        for y in adj[x]:
            edges.add((min(remap[x], remap[y]), max(remap[x], remap[y])))
    return TreeDecomposition(tuple(bags[x] for x in order), frozenset(edges))


def rich_shadow_layering(g: Graph, rd: RichDecomposition) -> ShadowLayering:
    """Shadow-complete layering of a connected G from a k-rich
    decomposition; a disconnected G raises ``ShadowError``.

    Layer i holds the vertices at distance i from vertex 0 in the
    bag-completed graph (G plus a clique on every bag, once the tree
    edges joining nested bags are contracted), found by a BFS over the
    bags without building that graph.  Each bag then spans two
    consecutive layers, layer indices are non-decreasing down the tree
    (property checked), and the bags whose fresh part lies in layer i,
    restricted to that layer, give a (k-1)-rich decomposition of the
    layer.

    The layering is built once per (G, rd) and held by ``rd``; for a
    connected G the recursive drivers' plan reuses it as its top level.
    """
    return _memoised("layering", g, rd, _build_shadow_layering)


def _build_shadow_layering(
    g: Graph, rd: RichDecomposition, comps: Optional[list[frozenset[int]]] = None
) -> ShadowLayering:
    """The layering of ``rich_shadow_layering``, built in one pass over
    the contracted bags; ``comps`` are G's components if the caller has
    searched them.

    The BFS walks an index from each vertex to the bags holding it.  The
    decomposition is valid, so every edge of G lies in a bag and the
    bag-completed graph is the union of the bags' cliques.  A bag is
    expanded once, when the first of its vertices leaves the queue: that
    vertex is at the bag's least distance d, so every vertex of the bag
    not yet reached is at d + 1, and when a later vertex of the bag
    leaves the queue its bag neighbours are all reached.  So the
    distances are those of the bag-completed graph, with no pair of bag
    vertices ever listed.

    The walk files each bag x under the layer ``ell[x]`` of its fresh
    part (its vertices not in its parent bag).  A vertex v of bag x is
    fresh in the topmost bag y holding v, an ancestor of x, or v is the
    root r; since layer indices do not decrease down the tree, v lies in
    layer ``ell[y] <= ell[x]``.  So a bag meets no layer after its own,
    and among the bags filed under layers up to i only those filed under
    i meet layer i.  Layer i's decomposition is those bags in preorder,
    each restricted to layer i, each joined to its parent bag when that
    is filed under i too.  A bag whose parent lies in an earlier layer
    hangs under the layer's first bag f instead.  The two share no
    vertex: f comes first in preorder, so the tree path from the bag to
    f leaves through its parent, which meets no later layer, and the
    bags holding a vertex form a subtree.  So the new edges break no
    vertex's subtree and meet in the empty clique, and the decomposition
    is valid and as rich as the one over every bag filed up to layer i,
    whose other bags are empty in layer i.
    """
    if g.n == 0:
        raise GraphInputError("graph must be non-empty")
    rep = validate_rich(g, rd)
    if not rep.ok:
        raise ShadowError(f"input decomposition invalid: {rep.violations[0]}")
    c = len(g.components() if comps is None else comps)
    if c > 1:
        raise ShadowError(f"graph has {c} components; a shadow layering needs one")
    k = max(rd.richness, 1)
    td = _contract_redundant(rd.decomposition)
    bags = td.bags
    b = len(bags)

    # the bags holding v are held[first[v]:first[v + 1]], ascending
    first = [0] * (g.n + 1)
    for bag in bags:
        for v in bag:
            first[v] += 1
    total = 0
    for v in range(g.n + 1):
        total += first[v]
        first[v] = total
    held = [0] * total
    for x in range(b - 1, -1, -1):
        for v in bags[x]:
            first[v] -= 1
            held[first[v]] = x
    # BFS of the bag-completed graph
    r = 0
    layer_of = [-1] * g.n
    layer_of[r] = 0
    queue = [r]
    expanded = bytearray(b)
    for v in queue:  # the list grows as the search reaches vertices
        d = layer_of[v] + 1
        for x in held[first[v] : first[v + 1]]:
            if not expanded[x]:
                expanded[x] = 1
                for w in bags[x]:
                    if layer_of[w] < 0:
                        layer_of[w] = d
                        queue.append(w)
    found: list[list[int]] = [[] for _ in range(layer_of[queue[-1]] + 1)]
    for v in queue:
        found[layer_of[v]].append(v)
    layers = tuple(map(frozenset, found))
    layering = Layering(layers)

    # root the tree at the least bag containing r
    alpha = held[first[r]]
    tree = _tree_lists(b, td.tree_edges)
    parent = [-1] * b
    order = [alpha]
    seen = {alpha}
    for x in order:
        for y in tree[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                order.append(y)
    if len(order) != b:
        raise ShadowError("decomposition tree is disconnected")

    # first-appearance part of each bag and its layer index; each bag
    # is filed under that layer, in preorder
    ell = [0] * b
    filed: list[list[int]] = [[] for _ in layers]
    for x in order:
        if x == alpha:
            fresh = bags[x] - {r}
        else:
            fresh = bags[x] - bags[parent[x]]
            if not fresh:
                raise ShadowError("redundant tree edge survived contraction")
        levels = {layer_of[v] for v in fresh}
        if len(levels) > 1:
            raise ShadowError(f"fresh part of bag {x} spans several layers")
        ell[x] = levels.pop() if levels else 0
        if x != alpha and ell[x] < ell[parent[x]]:
            raise ShadowError("layer index decreased down the tree")
        filed[ell[x]].append(x)

    per_layer: list[RichDecomposition] = []
    per_layer.append(
        RichDecomposition(TreeDecomposition.single_bag({r}))
    )
    for i in range(1, len(layers)):
        nodes = filed[i]
        idx = {x: j for j, x in enumerate(nodes)}
        sub = RichDecomposition(TreeDecomposition(
            tuple(bags[x] & layers[i] for x in nodes),
            frozenset((idx.get(parent[x], 0), j) for j, x in enumerate(nodes) if j),
        ))
        if sub.richness > k - 1:
            raise ShadowError(
                f"layer {i} decomposition is {sub.richness}-rich, wanted {k - 1}"
            )
        per_layer.append(sub)
    return ShadowLayering(layering, tuple(per_layer))


def validate_shadow_layering(g: Graph, rd: RichDecomposition, sl: ShadowLayering) -> Report:
    """Containment and per-layer validity of a shadow layering.  A
    per-layer bag is looked up only among the parent bags that hold its
    least vertex."""
    violations: list[str] = []
    parent_bags = rd.decomposition.bags
    holding: dict[int, list[frozenset[int]]] = {}
    for pb in parent_bags:
        for v in pb:
            holding.setdefault(v, []).append(pb)
    for i, sub in enumerate(sl.per_layer):
        layer = sl.layering.layers[i]
        gi, to_new = g.induced(sorted(layer))
        mapped = TreeDecomposition(
            tuple(frozenset(to_new[v] for v in bag) for bag in sub.decomposition.bags),
            sub.decomposition.tree_edges,
        )
        if layer:
            rep = validate_tree_decomposition(gi, mapped)
            violations.extend(f"layer {i}: {v}" for v in rep.violations)
        for j, bag in enumerate(sub.decomposition.bags):
            if bag and not any(bag <= pb for pb in holding.get(min(bag), ())):
                violations.append(f"layer {i} bag {j} not contained in any parent bag")
    return Report.of(violations)


def verify_shadow_complete(g: Graph, layering: Layering, k: int) -> Report:
    """The input must be a layering of G (a partition of V(G) whose edges
    join the same or consecutive layers); then for every suffix
    component, its neighbourhood in the previous layer must be a clique
    of size at most k.

    The layers are added from the last to the first into one union-find
    whose roots are their components' least vertices, so the suffix
    components come in O((n + m) log n) in all.  Only the
    layer-i vertices of a suffix component can have neighbours in layer
    i - 1, so its shadow is read off them; a component with none has an
    empty shadow, which fails only a negative k.  Violations come layer by
    layer, components in increasing order of their least vertex."""
    rep = validate_layering(g, layering)
    if not rep.ok:
        return rep
    layers = layering.layers
    layer_of = [0] * g.n
    for i, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = i
    adj = g.adjacency
    root = list(g.vertices())  # union-find; a root is its component's least vertex
    live: set[int] = set()  # the roots of the suffix added so far

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    found: list[list[str]] = []
    for i in range(len(layers) - 1, 0, -1):
        live.update(layers[i])
        for v in layers[i]:
            for w in adj[v]:
                if layer_of[w] >= i:
                    a, b = sorted((find(v), find(w)))
                    if a != b:
                        root[b] = a
                        live.discard(b)
        shadows: dict[int, set[int]] = {} if k >= 0 else {a: set() for a in live}
        for v in layers[i]:
            shadows.setdefault(find(v), set()).update(
                w for w in adj[v] if layer_of[w] == i - 1
            )
        here = []
        for a in sorted(shadows):
            shadow = shadows[a]
            if len(shadow) > k:
                here.append(
                    f"shadow of a layer-{i} component has {len(shadow)} > {k} vertices"
                )
            if not g.is_clique(sorted(shadow)):
                here.append(f"shadow of a layer-{i} component is not a clique")
        found.append(here)
    return Report.of(v for here in reversed(found) for v in here)


# ---------------------------------------------------------------------------
# Track composition over a shadow-complete layering.
# ---------------------------------------------------------------------------


def shadow_track_compose(
    g: Graph,
    layering: Layering,
    layer_tracks: Sequence[TrackLayout],
    s: int,
) -> TrackLayout:
    """Track layout of G from per-layer track layouts.

    Contract each layer component to a forest node; lay the forest on 3
    tracks by layer mod 3 with children grouped by parent and ordered by
    the position of their parent clique; give every (forest track,
    parent-clique signature, layer track) its own final track.  With c
    layer tracks and shadows of size at most s, this uses at most
    3c^(s+1) tracks; the X-crossing verifier remains the authority.
    """
    layers = layering.layers
    t = len(layers)
    if len(layer_tracks) != t:
        raise GraphInputError("one track layout per layer required")
    if t == 1:
        return layer_tracks[0]
    for i, tl in enumerate(layer_tracks):
        if set(tl.track_of) != set(layers[i]):
            raise GraphInputError(
                f"layer {i} track layout does not cover exactly its vertices"
            )

    # forest of layer components
    comp_of: dict[int, tuple[int, int]] = {}  # vertex -> (layer, comp index)
    comps: list[list[frozenset[int]]] = []
    for i in range(t):
        cs = _components_within(g, layers[i])
        comps.append(cs)
        for j, c in enumerate(cs):
            for v in c:
                comp_of[v] = (i, j)

    # parent cliques and signatures
    clique_of: list[list[frozenset[int]]] = []
    parent_of: list[list[Optional[int]]] = []
    sig_of: list[list[tuple[int, ...]]] = []
    for i in range(t):
        cliques, parents, sigs = [], [], []
        for comp in comps[i]:
            clique = frozenset(
                w
                for v in comp
                for w in g.adjacency[v]
                if i > 0 and w in layers[i - 1]
            )
            if len(clique) > s:
                raise ShadowError(
                    f"parent clique of size {len(clique)} exceeds s={s}"
                )
            cliques.append(clique)
            if clique:
                owners = {comp_of[w][1] for w in clique}
                if len(owners) != 1:
                    raise ShadowError(
                        "parent clique spans several components: layering "
                        "is not shadow complete"
                    )
                parents.append(owners.pop())
                sigs.append(
                    tuple(sorted({layer_tracks[i - 1].track_of[w] for w in clique}))
                )
            else:
                parents.append(None)
                sigs.append(())
        clique_of.append(cliques)
        parent_of.append(parents)
        sig_of.append(sigs)

    # order the forest nodes layer by layer
    node_pos: list[list[int]] = []
    for i in range(t):
        if i == 0:
            ranked = sorted(range(len(comps[i])), key=lambda j: min(comps[i][j]))
        else:
            pos_prev = node_pos[i - 1]
            tlp = layer_tracks[i - 1]

            def sort_key(j: int) -> tuple:
                sig = sig_of[i][j]
                clique = clique_of[i][j]
                if sig:
                    pos_by_track = {
                        tlp.track_of[w]: tlp.position_of[w] for w in clique
                    }
                    anchor = tuple(pos_by_track[tr] for tr in sig)
                else:
                    anchor = ()
                par = parent_of[i][j]
                return (
                    pos_prev[par] if par is not None else -1,
                    sig,
                    anchor,
                    min(comps[i][j]),
                )

            ranked = sorted(range(len(comps[i])), key=sort_key)
            _assert_clique_order_consistent(
                ranked, parent_of[i], sig_of[i], clique_of[i], layer_tracks[i - 1]
            )
        pos = [0] * len(comps[i])
        for p, j in enumerate(ranked):
            pos[j] = p
        node_pos.append(pos)

    # final tracks keyed by (layer mod 3, signature, layer track); the
    # root layer (empty signature) shares the track family of the least
    # signature on forest track 0: within-track order is layer-sorted,
    # so root vertices precede everything they could cross with
    sigs_on_zero = sorted(
        {sig_of[i][j] for i in range(0, t, 3) for j in range(len(comps[i])) if sig_of[i][j]}
    )
    root_sig = sigs_on_zero[0] if sigs_on_zero else ()
    grouped: dict[tuple, list[tuple]] = {}
    for v in g.vertices():
        i, j = comp_of[v]
        sig = sig_of[i][j] or root_sig
        key = (i % 3, sig, layer_tracks[i].track_of[v])
        grouped.setdefault(key, []).append(
            (i, node_pos[i][j], layer_tracks[i].position_of[v], v)
        )
    tracks = []
    for key in sorted(grouped):
        vs = sorted(grouped[key])
        tracks.append(tuple(v for _, _, _, v in vs))
    return TrackLayout(tuple(tracks))


def _assert_clique_order_consistent(
    ranked: Sequence[int],
    parents: Sequence[Optional[int]],
    sigs: Sequence[tuple[int, ...]],
    cliques: Sequence[frozenset[int]],
    parent_layout: TrackLayout,
) -> None:
    """Same-parent, same-signature cliques must be ordered identically on
    every track of the signature."""
    last: dict[tuple, dict[int, int]] = {}
    for j in ranked:
        if not sigs[j]:
            continue
        key = (parents[j], sigs[j])
        positions = {
            parent_layout.track_of[w]: parent_layout.position_of[w]
            for w in cliques[j]
        }
        prev = last.get(key)
        if prev is not None:
            for tr, p in positions.items():
                if p < prev[tr]:
                    raise ShadowError(
                        "clique ordering inconsistent across the tracks of "
                        f"signature {sigs[j]}"
                    )
        last[key] = positions


def shadow_track_bound(c: int, s: int) -> int:
    total_sigs = 1 + sum(math.comb(c, i) for i in range(1, s + 1))
    return 3 * c * total_sigs


# ---------------------------------------------------------------------------
# Recursive drivers: one shadow level per unit of richness.
# ---------------------------------------------------------------------------

TrackSolver = Callable[[Graph], TrackLayout]
ColourSolver = Callable[[Graph], Colouring]


def _merge_component_tracks(parts: Sequence[TrackLayout]) -> TrackLayout:
    """Concatenate per-component layouts track by track.  Components are
    edge-disjoint, and each occupies a contiguous block on every track,
    so no X-crossing can involve two components."""
    width = max(len(p.tracks) for p in parts)
    tracks = []
    for i in range(width):
        row: list[int] = []
        for p in parts:
            if i < len(p.tracks):
                row.extend(p.tracks[i])
        tracks.append(tuple(row))
    return TrackLayout(tuple(tracks))


def _compose_tracks(
    g: Graph, layering: Layering, layer_tracks: Sequence[TrackLayout], k: int
) -> TrackLayout:
    c = max((len(tl.tracks) for tl in layer_tracks), default=1)
    out = shadow_track_compose(g, layering, layer_tracks, k)
    if len(out.tracks) > shadow_track_bound(c, k):
        raise ShadowError(
            f"{len(out.tracks)} tracks exceed the level bound "
            f"{shadow_track_bound(c, k)}"
        )
    return out


@dataclass(frozen=True)
class _Artifact:
    """How the shadow recursion handles one kind of artifact: ``leaf``
    solves a leaf of the plan, ``relabel`` maps a piece's result back to
    the parent's vertex ids (``to_old[j]`` is the parent's id of the
    piece's vertex j), ``merge`` joins the results of disjoint
    components, and ``compose(g, layering, parts, k)`` joins per-layer
    results across one shadow level of a k-rich decomposition.

    The built-in leaf puts each vertex on a track of its own, in
    ascending order, and gives vertex v colour v.  That is valid for any
    graph: no edge lies inside a track, no two edges join the same pair
    of one-vertex tracks (so no X-crossing), and distinct colours repeat
    on no path.  Leaves are connected, so ``merge`` and ``relabel`` then
    put the i-th vertex of every component of a 0-rich piece on track i
    with colour i; the track count is the largest component, which lies
    in one bag.

    A leaf solver, the built-in one or a caller's, must be a function of
    its graph: a fold solves each distinct leaf graph once, and every
    leaf with that graph shares the result."""

    leaf: Callable[[Graph], Any]
    relabel: Callable[[Any, Sequence[int]], Any]
    merge: Callable[[Sequence[Any]], Any]
    compose: Callable[[Graph, Layering, Sequence[Any], int], Any]


_TRACKS = _Artifact(
    leaf=lambda g: TrackLayout(tuple((v,) for v in g.vertices())),
    relabel=lambda tl, to_old: TrackLayout(
        tuple(tuple(to_old[j] for j in tr) for tr in tl.tracks)
    ),
    merge=_merge_component_tracks,
    compose=_compose_tracks,
)

_COLOURS = _Artifact(
    leaf=lambda g: Colouring({v: v for v in g.vertices()}),
    relabel=lambda c, to_old: Colouring({to_old[j]: col for j, col in c.colour.items()}),
    merge=lambda parts: Colouring({v: col for p in parts for v, col in p.colour.items()}),
    compose=lambda g, layering, parts, k: shadow_nonrep_compose(
        g, layering, parts, layer_pattern_colouring(len(layering))
    ),
)


@dataclass(frozen=True)
class _Piece:
    """A node of the shadow recursion's plan: a piece G of richness k and
    its ``parts``, each ``(to_old, child)`` where ``to_old[j]`` is the id
    in G of the child's vertex j, so a child's vertices keep the order of
    their ids in G.  With no layering the parts are the components of a
    disconnected G, at any richness, or there are none and G is a leaf:
    a piece of at most one vertex or a connected 0-rich one, the only
    pieces a bag solver sees.  With a layering, G is connected and the
    parts are the layers of its shadow layering, one richness lower."""

    g: Graph
    k: int
    layering: Optional[Layering] = None
    parts: tuple[tuple[tuple[int, ...], _Piece], ...] = ()


_ONE = Graph(1, frozenset())  # the graph of every one-vertex part


def _split_decomposition(
    td: TreeDecomposition, part_of: Sequence[int], to_new: Sequence[int], count: int
) -> list[tuple[list[frozenset[int]], list[tuple[int, int]]]]:
    """The restrictions of ``td`` to ``count`` disjoint parts of G, in one
    pass: each bag is filed, relabelled by ``to_new``, under every part
    it meets (``part_of[v]`` for each of its vertices), and a part keeps
    a tree edge when both of its bags were filed under it.  A part's
    bags keep their order.  The bags meeting a connected part form a
    subtree, so each component gets a tree decomposition of itself.
    Vertices outside G are dropped."""
    n = len(part_of)
    out: list[tuple[list[frozenset[int]], list[tuple[int, int]]]] = [
        ([], []) for _ in range(count)
    ]
    filed: list[dict[int, int]] = []  # per bag: part -> the bag's index there
    for bag in td.bags:
        if bag and (min(bag) < 0 or max(bag) >= n):
            bag = [v for v in bag if 0 <= v < n]
        here: dict[int, list[int]] = {}
        for v in bag:
            here.setdefault(part_of[v], []).append(to_new[v])
        at = {}
        for p, vs in here.items():
            bags = out[p][0]
            at[p] = len(bags)
            bags.append(frozenset(vs))
        filed.append(at)
    for x, y in td.tree_edges:
        fx, fy = filed[x], filed[y]
        for p in fx.keys() & fy.keys():
            out[p][1].append((fx[p], fy[p]))
    return out


def _split(
    g: Graph,
    rd: RichDecomposition,
    parts: Sequence[Sequence[int]],
    per_layer: Optional[Sequence[RichDecomposition]] = None,
) -> tuple[tuple[tuple[int, ...], _Piece], ...]:
    """The ``(to_old, child)`` pairs of G split into ascending ``parts``
    that partition it: the layers of G's shadow layering, with their
    ``per_layer`` decompositions, or G's components, among which ``rd``
    is split in one pass.  The induced graphs come from one pass over
    G's edges, and every one-vertex part shares ``_ONE``.  A component of
    a 0-rich G is a leaf at once, with no restricted decomposition, and a
    layer's decomposition keeps the richness the layering computed."""
    k = rd.richness
    part_of = [0] * g.n
    to_new = [0] * g.n
    for p, part in enumerate(parts):
        for j, v in enumerate(part):
            part_of[v] = p
            to_new[v] = j
    edges: list[list[tuple[int, int]]] = [[] for _ in parts]
    for u, v in g.edges:
        if part_of[u] == part_of[v]:
            edges[part_of[u]].append((to_new[u], to_new[v]))
    if per_layer is not None:
        decomps = [(sub.decomposition.bags, sub.decomposition.tree_edges) for sub in per_layer]
    elif k:
        decomps = _split_decomposition(rd.decomposition, part_of, to_new, len(parts))
    else:
        decomps = None
    out = []
    for p, part in enumerate(parts):
        if decomps is None:
            child = _Piece(_ONE if len(part) == 1 else Graph(len(part), frozenset(edges[p])), 0)
        elif len(part) == 1:  # all its bags are {0}: 1-rich if it has two
            child = _Piece(_ONE, min(len(decomps[p][1]), 1))
        else:
            bags, tree_edges = decomps[p]
            if per_layer is None:
                part_rd = RichDecomposition(TreeDecomposition(bags, tree_edges))
            else:
                part_rd = RichDecomposition(TreeDecomposition(
                    [frozenset([to_new[v] for v in bag]) for bag in bags], tree_edges
                ))
                # relabelling keeps the intersections' sizes, so the richness
                part_rd.__dict__["richness"] = per_layer[p].richness
            child = _build_plan(Graph(len(part), frozenset(edges[p])), part_rd)
        out.append((tuple(part), child))
    return tuple(out)


def _build_plan(g: Graph, rd: RichDecomposition) -> _Piece:
    """Split a disconnected G into its components, at every richness; a
    piece of at most one vertex or a connected 0-rich piece is a leaf;
    any other piece gets a shadow-complete layering, and the recursion
    goes on in every layer.  Each split takes one pass: the layering
    files every bag under its layer, and a disconnected piece's
    decomposition is split among all its components at once
    (``_split_decomposition``).  A connected piece's components are
    searched once, for the split and for the layering's check, and every
    check of ``rich_shadow_layering`` runs once per layered piece."""
    k = rd.richness
    if g.n <= 1:
        return _Piece(g, k)
    comps = g.components()
    if len(comps) > 1:
        return _Piece(g, k, None, _split(g, rd, [sorted(c) for c in comps]))
    if k == 0:
        return _Piece(g, k)
    sl = _memoised("layering", g, rd, lambda g, rd: _build_shadow_layering(g, rd, comps))
    layers = [sorted(layer) for layer in sl.layering.layers]
    return _Piece(g, k, sl.layering, _split(g, rd, layers, sl.per_layer))


def _plan(g: Graph, rd: RichDecomposition) -> _Piece:
    """The shadow recursion's plan for G, built once per (G, rd) and held
    by ``rd``: O(total piece size), shared by both drivers."""
    return _memoised("plan", g, rd, _build_plan)


def _fold(plan: _Piece, solve: Callable[[Graph], Any], art: _Artifact) -> Any:
    """One artifact from a plan, depth first.  ``solve`` runs once per
    distinct leaf graph, in the order the leaves are first met, and
    every leaf with that graph shares its result.  Each node relabels
    its parts' results and merges or composes them."""
    solved: dict[Graph, Any] = {}

    def fold(piece: _Piece) -> Any:
        if not piece.parts:
            if piece.g not in solved:
                solved[piece.g] = solve(piece.g)
            return solved[piece.g]
        parts = [art.relabel(fold(child), to_old) for to_old, child in piece.parts]
        if piece.layering is None:
            return art.merge(parts)
        return art.compose(piece.g, piece.layering, parts, piece.k)

    return fold(plan)


def recursive_track_driver(
    g: Graph, rd: RichDecomposition, bag_solver: TrackSolver = _TRACKS.leaf
) -> TrackLayout:
    """Track layout by the shadow recursion, folded over the plan shared
    with ``rich_shadow_layering`` and the colouring driver: each level
    multiplies the track count by at most ``shadow_track_bound``'s factor.
    ``bag_solver`` lays out each leaf, a connected 0-rich piece or a
    piece of at most one vertex on vertices 0..s-1; it defaults to one
    track per vertex.  It must be a function of its graph: each distinct
    leaf graph is solved once per call, and equal leaves share the
    layout."""
    return _fold(_plan(g, rd), bag_solver, _TRACKS)


def recursive_nonrep_driver(
    g: Graph, rd: RichDecomposition, bag_solver: ColourSolver = _COLOURS.leaf
) -> Colouring:
    """Nonrepetitive colouring by the shadow recursion, folded over the
    plan shared with ``rich_shadow_layering`` and the track driver: each
    level multiplies the palette by the layer-pattern symbol count.
    ``bag_solver`` colours each leaf, a connected 0-rich piece or a piece
    of at most one vertex on vertices 0..s-1; it defaults to colour v for
    vertex v.  It must be a function of its graph: each distinct leaf
    graph is solved once per call, and equal leaves share the colouring."""
    return _fold(_plan(g, rd), bag_solver, _COLOURS)


# ---------------------------------------------------------------------------
# Text format: decomposition format preceded by a "rich k" line.
# ---------------------------------------------------------------------------


def format_rich(rd: RichDecomposition) -> str:
    from .decomposition import format_decomposition

    return f"rich {rd.richness}\n" + format_decomposition(rd.decomposition)


def parse_rich(text: str) -> RichDecomposition:
    from .decomposition import parse_decomposition

    lines = text.splitlines()
    idx = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    head = [] if idx is None else lines[idx].split()
    if len(head) != 2 or head[0] != "rich" or not head[1].isdecimal():
        raise GraphInputError("rich decomposition must start with 'rich k'")
    declared = int(head[1])
    rd = RichDecomposition(parse_decomposition("\n".join(lines[idx + 1 :])))
    if rd.richness > declared:
        raise GraphInputError(
            f"declared richness {declared} below actual {rd.richness}"
        )
    return rd
