"""Brute-force searches and closed-form reports, kept as test oracles.

An exact treewidth by dynamic programming over vertex subsets, a
layered-width search over elimination orderings for tiny graphs (a good
provider for clique-sums), a separation oracle backed by a decomposition
for Reed's converse, and the closed-form bounds implied by a layered
width.  They are exponential or quadratic, so the library does not ship
them; the tests check its constructions against them.

The shadow recursion's old plan is kept here too: per-layer
decompositions that rescan every bag up to their layer, a restriction
that scans every bag once per part, and the plan built on both.  So are
the plain checks they replaced: a contraction that rescans every bag
after each merge, the richness check pair by pair, a BFS of the
bag-completed graph and a shadow check that searches the components of
every suffix again.  None of them calls the code it is an oracle for.

The bounded lazy-walk search that once checked the layer word, growing
the two halves of a walk in lockstep up to a given length, is the
oracle of the every-length component check that replaced it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from layersep.decomposition import (
    DecompositionError,
    GoodProvider,
    LayeredDecomposition,
    SeparationOracle,
    TreeDecomposition,
    separator_from_decomposition,
    validate_tree_decomposition,
)
from layersep.decomposition import _tree_lists
from layersep.graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    Separation,
    _components_within,
    bfs_layering,
    validate_layering,
)
from layersep.shadow import RichDecomposition, ShadowError, ShadowLayering, _Piece


def _treedec_from_elimination(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Clique-tree style decomposition from an elimination ordering."""
    pos = {v: i for i, v in enumerate(order)}
    nbrs = {v: set(g.adjacency[v]) for v in g.vertices()}
    bags: list[frozenset[int]] = []
    bag_of: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for v in order:
        higher = {w for w in nbrs[v] if pos[w] > pos[v]}
        bags.append(frozenset({v} | higher))
        bag_of[v] = len(bags) - 1
        for a in higher:
            nbrs[a] |= higher - {a}
            nbrs[a].discard(v)
    for v in order:
        higher = [w for w in bags[bag_of[v]] if pos[w] > pos[v]]
        if higher:
            nxt = min(higher, key=lambda w: pos[w])
            edges.append((bag_of[v], bag_of[nxt]))
    return TreeDecomposition(tuple(bags), frozenset(edges))


def small_good_provider(g: Graph, ell: int) -> GoodProvider:
    """Search-based ell-good provider for tiny graphs (n <= 9).

    BFS-layers the graph from the requested clique and searches
    elimination orderings for a tree decomposition of layered width at
    most ell with respect to that layering.
    """
    if g.n > 9:
        raise GraphInputError("search provider only supports n <= 9")

    def provider(clique: tuple[int, ...]) -> LayeredDecomposition:
        root = tuple(sorted(set(clique))) if clique else (0,)
        if not g.is_clique(root):
            raise GraphInputError("requested root set is not a clique")
        if len(root) > ell:
            raise GraphInputError(f"clique larger than ell={ell}")
        layering = bfs_layering(g, root)
        for order in itertools.permutations(g.vertices()):
            td = _treedec_from_elimination(g, order)
            ld = LayeredDecomposition(td, layering)
            if ld.layered_width <= ell:
                return ld
        raise DecompositionError(
            f"no layered-width-{ell} decomposition found for the given root"
        )

    return provider


def decomposition_separation_oracle(
    g: Graph, td: TreeDecomposition
) -> SeparationOracle:
    """Separation oracle backed by separator_from_decomposition."""

    def oracle(sample: frozenset[int]) -> Separation:
        if not sample:
            sample = frozenset([0])
        _, sep = separator_from_decomposition(g, td, sample)
        return sep

    return oracle


@dataclass(frozen=True)
class BoundReport:
    n: int
    m: int
    ell: int
    diameter: int
    radius: int
    edge_bound: int  # (3*ell - 1) * n
    edge_bound_ok: bool
    tw_bound_diameter: int  # ell*(d+1) - 1
    tw_bound_diameter_sep: int  # 4*ell*(d+1) - 1 (strict bound realised)
    norin_bound: float  # 2*sqrt(ell*n)

    def local_treewidth(self, r: int) -> int:
        return self.ell * (2 * r + 1) - 1


def _eccentricities(g: Graph) -> list[int]:
    return [len(bfs_layering(g, [v])) - 1 for v in g.vertices()]


def bound_report(g: Graph, ld: LayeredDecomposition) -> BoundReport:
    """All closed-form bounds implied by layered width ell."""
    ell = max(ld.layered_width, 1)
    ecc = _eccentricities(g) if g.n else [0]
    d = max(ecc)
    radius = min(ecc)
    edge_bound = (3 * ell - 1) * g.n
    return BoundReport(
        n=g.n,
        m=g.m,
        ell=ell,
        diameter=d,
        radius=radius,
        edge_bound=edge_bound,
        edge_bound_ok=g.m <= edge_bound,
        tw_bound_diameter=ell * (d + 1) - 1,
        tw_bound_diameter_sep=4 * ell * (d + 1) - 1,
        norin_bound=2 * math.sqrt(ell * g.n),
    )


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth for n <= 16 by dynamic programming over the
    subsets of eliminated vertices."""
    n = g.n
    if n > 16:
        raise GraphInputError("exact treewidth oracle limited to n <= 16")
    if n == 0:
        return -1
    nb = [0] * n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    full = (1 << n) - 1
    dp = [n] * (full + 1)
    dp[0] = 0
    for s in range(1, full + 1):
        best = n
        rem = s
        while rem:
            b = rem & (-rem)
            rem ^= b
            v = b.bit_length() - 1
            prev = dp[s ^ b]
            if prev >= best:
                continue
            # degree of v when eliminated after s^b: neighbours of the
            # component of v inside (s^b) | {v}
            inside = s ^ b
            reach = b
            frontier = b
            acc = 0
            while frontier:
                w = frontier & (-frontier)
                frontier ^= w
                nw = nb[w.bit_length() - 1]
                acc |= nw
                add = nw & inside & ~reach
                reach |= add
                frontier |= add
            deg = (acc & ~inside & ~b).bit_count()
            cost = prev if prev >= deg else deg
            if cost < best:
                best = cost
        dp[s] = best
    return dp[full]


# ---------------------------------------------------------------------------
# The shadow recursion's plan by rescans.
# ---------------------------------------------------------------------------


def _contract_redundant_restart(td: TreeDecomposition) -> TreeDecomposition:
    """Oracle for ``_contract_redundant``: rescan every bag from the least
    after each contraction."""
    bags = list(td.bags)
    adj = {i: set() for i in range(len(bags))}
    for x, y in td.tree_edges:
        adj[x].add(y)
        adj[y].add(x)
    alive = set(range(len(bags)))
    changed = True
    while changed:
        changed = False
        for x in sorted(alive):
            for y in sorted(adj[x]):
                if bags[x] <= bags[y]:
                    # merge x into y
                    for z in adj[x]:
                        if z != y:
                            adj[z].discard(x)
                            adj[z].add(y)
                            adj[y].add(z)
                    adj[y].discard(x)
                    alive.discard(x)
                    adj[x] = set()
                    changed = True
                    break
            if changed:
                break
    order = sorted(alive)
    remap = {old: i for i, old in enumerate(order)}
    edges = set()
    for x in order:
        for y in adj[x]:
            edges.add((min(remap[x], remap[y]), max(remap[x], remap[y])))
    return TreeDecomposition(tuple(bags[x] for x in order), frozenset(edges))


def validate_rich_pairwise(g: Graph, rd: RichDecomposition, k: int | None = None) -> Report:
    """Oracle for ``validate_rich``: the decomposition's own check, then
    every pair of every tree edge's intersection looked up in G."""
    violations = list(validate_tree_decomposition(g, rd.decomposition).violations)
    td = rd.decomposition
    for x, y in sorted(td.tree_edges):
        inter = td.bags[x] & td.bags[y]
        if not all(g.has_edge(u, v) for u, v in itertools.combinations(inter, 2)):
            violations.append(f"bags {x},{y} intersect in a non-clique")
        if k is not None and len(inter) > k:
            violations.append(f"bags {x},{y} intersect in {len(inter)} > {k} vertices")
    return Report.of(violations)


def shadow_complete_by_rescan(g: Graph, layering: Layering, k: int) -> Report:
    """Oracle for ``verify_shadow_complete``: for every layer i, the
    components of the union of layers i onwards are searched again, and
    each one's neighbourhood in layer i - 1 is checked."""
    rep = validate_layering(g, layering)
    if not rep.ok:
        return rep
    violations: list[str] = []
    layers = layering.layers
    for i in range(1, len(layers)):
        suffix = frozenset().union(*layers[i:])
        for comp in _components_within(g, suffix):
            shadow = {w for v in comp for w in g.adjacency[v] if w in layers[i - 1]}
            if len(shadow) > k:
                violations.append(
                    f"shadow of a layer-{i} component has {len(shadow)} > {k} vertices"
                )
            if not g.is_clique(sorted(shadow)):
                violations.append(f"shadow of a layer-{i} component is not a clique")
    return Report.of(violations)



def shadow_layering_by_rescan(g: Graph, rd: RichDecomposition) -> ShadowLayering:
    """``rich_shadow_layering`` with layer i's decomposition made from
    every contracted bag whose fresh part lies in a layer up to i, in
    preorder, each restricted to layer i and joined to its parent bag;
    all but the bags filed under layer i are empty there."""
    if g.n == 0:
        raise GraphInputError("graph must be non-empty")
    rep = validate_rich_pairwise(g, rd)
    if not rep.ok:
        raise ShadowError(f"input decomposition invalid: {rep.violations[0]}")
    c = len(g.components())
    if c > 1:
        raise ShadowError(f"graph has {c} components; a shadow layering needs one")
    k = max(rd.richness, 1)
    td = _contract_redundant_restart(rd.decomposition)
    edges = set(g.edges)
    for bag in td.bags:
        edges.update(itertools.combinations(sorted(bag), 2))
    r = 0
    layering = bfs_layering(Graph.from_edges(g.n, edges), [r])
    layer_of = layering.layer_of
    alpha = next(i for i, bag in enumerate(td.bags) if r in bag)
    b = len(td.bags)
    adj = _tree_lists(b, td.tree_edges)
    parent = [-1] * b
    order = [alpha]
    seen = {alpha}
    for x in order:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                order.append(y)
    if len(order) != b:
        raise ShadowError("decomposition tree is disconnected")
    ell = [0] * b
    for x in order:
        if x == alpha:
            fresh = td.bags[x] - {r}
        else:
            fresh = td.bags[x] - td.bags[parent[x]]
            if not fresh:
                raise ShadowError("redundant tree edge survived contraction")
        levels = {layer_of[v] for v in fresh}
        if len(levels) > 1:
            raise ShadowError(f"fresh part of bag {x} spans several layers")
        ell[x] = levels.pop() if levels else 0
        if x != alpha and ell[x] < ell[parent[x]]:
            raise ShadowError("layer index decreased down the tree")
    per_layer = [RichDecomposition(TreeDecomposition.single_bag({r}))]
    for i in range(1, len(layering)):
        nodes = [x for x in order if ell[x] <= i]
        idx = {x: j for j, x in enumerate(nodes)}
        bags = tuple(td.bags[x] & layering.layers[i] for x in nodes)
        tedges = frozenset(
            (min(idx[x], idx[parent[x]]), max(idx[x], idx[parent[x]]))
            for x in nodes
            if x != alpha and parent[x] in idx
        )
        sub = RichDecomposition(TreeDecomposition(bags, tedges))
        if sub.richness > k - 1:
            raise ShadowError(
                f"layer {i} decomposition is {sub.richness}-rich, wanted {k - 1}"
            )
        per_layer.append(sub)
    return ShadowLayering(layering, tuple(per_layer))


def _restrict_rd(
    rd: RichDecomposition, part: frozenset[int], to_new: dict[int, int]
) -> RichDecomposition:
    """Restriction to a piece, relabelled by ``to_new``: the bags that
    meet the piece, in their order, and the tree edges between them,
    found by a scan of every bag and tree edge."""
    td = rd.decomposition
    kept = [x for x, bag in enumerate(td.bags) if not bag.isdisjoint(part)]
    idx = {x: i for i, x in enumerate(kept)}
    return RichDecomposition(
        TreeDecomposition(
            tuple(frozenset(to_new[v] for v in td.bags[x] & part) for x in kept),
            frozenset(
                (idx[x], idx[y]) for x, y in td.tree_edges if x in idx and y in idx
            ),
        )
    )


def plan_by_rescan(g: Graph, rd: RichDecomposition) -> _Piece:
    """The shadow recursion's plan from ``shadow_layering_by_rescan`` and
    ``_restrict_rd``, one induced graph per part."""
    k = rd.richness
    if g.n <= 1:
        return _Piece(g, k)

    def on(part: frozenset[int], part_rd: RichDecomposition) -> tuple:
        sub_g, to_new = g.induced(sorted(part))
        if k == 0:
            return tuple(to_new), _Piece(sub_g, 0)
        return tuple(to_new), plan_by_rescan(sub_g, _restrict_rd(part_rd, part, to_new))

    comps = g.components()
    if len(comps) > 1:
        return _Piece(g, k, None, tuple(on(comp, rd) for comp in comps))
    if k == 0:
        return _Piece(g, k)
    sl = shadow_layering_by_rescan(g, rd)
    return _Piece(g, k, sl.layering, tuple(
        on(layer, sub) for layer, sub in zip(sl.layering.layers, sl.per_layer)
    ))


def _matching_walk(seq: Sequence[int], half: int) -> tuple[int, ...] | None:
    """Shortest lazy walk of even length <= 2 half over the positions of
    seq whose colour halves match on different index halves, or None.

    The two halves of a walk are grown in lockstep as index pairs
    (a_i, b_i) with seq[a_i] == seq[b_i], each index moving by -1, 0 or
    +1 per step.  A state is (a_i, b_i, b_0, halves differ).  A state
    closes a counterexample of length 2i + 2 when a_i is within one of
    b_0 (the junction of the two halves) and the halves differ.  One
    pass of half - 1 steps thus covers every even length up to 2 half
    over at most 2 W^3 states for W positions.  A state is dropped once
    a_i can no longer get back within one of b_0 in the steps left.
    Each layer maps a state to one predecessor, so the counterexample
    is read back from the layers.  A half of at least len(seq)^2 is
    exhaustive: a shortest counterexample is a step from the diagonal
    (half 1 or 2) or a path of distinct off-diagonal cells.
    """
    p = len(seq) - 1
    step = {x: [y for y in (x - 1, x, x + 1) if 0 <= y <= p] for x in range(p + 1)}
    layer: dict[tuple, tuple | None] = {
        (a, b, b, a != b): None for a in step for b in step if seq[a] == seq[b]
    }
    layers = [layer]
    for i in range(half):
        for state in layer:
            a, _, b0, differ = state
            if differ and abs(a - b0) <= 1:
                first: list[int] = []
                second: list[int] = []
                for back in reversed(layers):
                    first.append(state[0])
                    second.append(state[1])
                    state = back[state]
                return (*reversed(first), *reversed(second))
        left = half - 1 - i  # steps still allowed to each half
        if not left:
            break
        layer = {
            (a2, b2, b0, differ or a2 != b2): state
            for state in layer
            for a, b, b0, differ in (state,)
            for a2 in step[a]
            if abs(a2 - b0) <= left
            for b2 in step[b]
            if seq[a2] == seq[b2]
        }
        layers.append(layer)
    return None
