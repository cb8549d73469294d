"""Tree decompositions with layered width.

Implements the genus-driven layered decomposition (tree-cotree bags), the
clique-sum composition of good decompositions, balanced-separator
extraction from a decomposition, the converse recursion building a
decomposition from a separation oracle, the sqrt(kn) treewidth
construction, closed-form bound reports and an exact treewidth oracle
for small graphs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .embedding import EmbeddedGraph, embed_planar, tree_cotree, triangulate
from .graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    Separation,
    _components_within,
    bfs_layering,
    validate_separation,
)


class DecompositionError(ValueError):
    """Raised for invalid decompositions or broken oracle contracts."""


class DecompositionSelfCheckError(DecompositionError):
    """A decomposition the package built broke its proved bound: an
    internal fault, not invalid input."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 joined by a tree on the bag indices.

    ``bags`` is a tuple of frozensets, or a lazy ``_CoreBags`` sequence:
    the root-path bags of ``genus_layered_decomposition``, or the bags
    parsed from a text, held as each bag's change from its parent bag.
    Both index, iterate and compare equal alike; take ``tuple(bags)``
    before tuple arithmetic.  Width, layered width, ``top_rank``,
    validation and the text read the bags as ``deltas`` along ``forest``,
    so a lazy bag is never built for them.
    """

    bags: Sequence[frozenset[int]]
    tree_edges: frozenset[tuple[int, int]]

    @staticmethod
    def single_bag(vs: Iterable[int]) -> "TreeDecomposition":
        return TreeDecomposition((frozenset(vs),), frozenset())

    @property
    def width(self) -> int:
        if isinstance(self.bags, tuple):
            return max(map(len, self.bags), default=0) - 1
        core, adds, drops = self.deltas
        parent, order = self.forest
        size = [0] * len(order)
        for x in order:
            p = parent[x]
            size[x] = (size[p] if p >= 0 else 0) + len(adds[x]) - len(drops[x])
        return len(core) + max(size, default=0) - 1

    @cached_property
    def tree_adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for x, y in self.tree_edges:
            adj[x].append(y)
            adj[y].append(x)
        for lst in adj.values():
            lst.sort()
        return adj

    @cached_property
    def forest(self) -> tuple[list[int], list[int]]:
        """(parent, preorder) of a depth-first search of the bag tree from
        bag 0, then from the least bag not yet reached, neighbours taken
        in ascending order; parent -1 marks each search's root.  A
        disconnected tree gives a spanning forest, one with a cycle a
        spanning tree.  Bags parsed with their tree hand theirs over."""
        bags = self.bags
        if isinstance(bags, _DeltaBags) and bags.tree_edges is self.tree_edges:
            return bags.parent, bags.order
        b = len(bags)
        adj = self.tree_adjacency
        parent = [-1] * b
        order: list[int] = []
        seen = [False] * b
        for r in range(b):
            if seen[r]:
                continue
            seen[r] = True
            stack = [r]
            while stack:
                x = stack.pop()
                order.append(x)
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        stack.append(y)
        return parent, order

    @cached_property
    def rooted(self) -> tuple[list[int], list[int], list[int]]:
        """(parent, preorder, tin) with the tree rooted at bag 0."""
        parent, order = self.forest
        if parent.count(-1) > 1:
            raise DecompositionError("decomposition tree is disconnected")
        tin = [0] * len(order)
        for r, x in enumerate(order):
            tin[x] = r
        return parent, order, tin

    @cached_property
    def deltas(self) -> tuple[frozenset[int], Sequence[Sequence[int]], Sequence[Sequence[int]]]:
        """(core, adds, drops): the vertices in every bag and, per bag,
        the vertices it adds to and drops from its parent's bag in
        ``forest``; a root adds its bag less the core.  Parsed bags hold
        exactly these when their parents are ``forest``'s, root-path bags
        derive them in O(change) (``_RootPathBags.deltas``), and other
        bags are compared with their parents' bags."""
        bags = self.bags
        parent, order = self.forest
        if isinstance(bags, _DeltaBags) and parent is bags.parent:
            return bags.core, bags.adds, bags.drops
        if isinstance(bags, _RootPathBags):
            return bags.core, *bags.deltas(parent, order)
        full = tuple(bags)
        core = full[0].intersection(*full[1:]) if full else frozenset()
        adds: list[AbstractSet[int]] = [frozenset()] * len(full)
        drops: list[AbstractSet[int]] = [frozenset()] * len(full)
        for x in order:
            p = parent[x]
            if p < 0:
                adds[x] = full[x] - core
            else:
                adds[x] = full[x] - full[p]
                drops[x] = full[p] - full[x]
        return core, adds, drops

    @cached_property
    def subtree_end(self) -> list[int]:
        """Preorder rank just past each bag's subtree: bag y lies in the
        subtree of x iff tin[x] <= tin[y] < subtree_end[x]."""
        parent, order, tin = self.rooted
        size = [1] * len(order)
        for x in reversed(order):
            if parent[x] >= 0:
                size[parent[x]] += size[x]
        return [t + k for t, k in zip(tin, size)]

    @cached_property
    def ancestor_jumps(self) -> list[list[int]]:
        """Binary lifting table: jumps[j][x] is the 2**j-th ancestor of
        bag x, or -1 above the root."""
        jumps = [self.rooted[0]]
        while any(a >= 0 for a in jumps[-1]):
            prev = jumps[-1]
            jumps.append([prev[a] if a >= 0 else -1 for a in prev])
        return jumps

    @cached_property
    def top_rank(self) -> list[int]:
        """Per vertex, the preorder rank in ``rooted`` of its top bag, the
        bag nearest the root, or ``len(bags)`` for a vertex in no bag;
        indexed from 0 up to the largest bag vertex.  A vertex's bags form
        a subtree, so its top bag is the first bag in preorder that adds
        it.  A negative bag vertex raises ``DecompositionError``."""
        _, order, _ = self.rooted
        if isinstance(self.bags, _RootPathBags):
            return self.bags.top_rank(order)
        core, adds, _ = self.deltas
        every = [*core, *itertools.chain.from_iterable(adds)]
        if every and min(every) < 0:
            raise DecompositionError(f"bag vertex {min(every)} is negative")
        none = len(order)
        rank = [none] * (max(every, default=-1) + 1)
        for v in core:
            rank[v] = 0
        for r, x in enumerate(order):
            for v in adds[x]:
                if rank[v] == none:
                    rank[v] = r
        return rank

    @property
    def top_bag(self) -> dict[int, int]:
        """Each vertex's bag nearest the root, read off ``top_rank``."""
        order = self.rooted[1]
        return {v: order[r] for v, r in enumerate(self.top_rank) if r < len(order)}


@dataclass(frozen=True)
class LayeredDecomposition:
    """A tree decomposition together with the layering realising its
    layered width."""

    decomposition: TreeDecomposition
    layering: Layering

    @cached_property
    def layered_width(self) -> int:
        """Most vertices of one bag in one layer.  The core, the vertices
        common to every bag, is counted per layer once; then one search
        of the bag tree keeps the count of the bag it is at per layer,
        changing it by each bag's ``deltas``.  Root-path bags under their
        proved ceiling (``_RootPathBags.layer_ceiling``) are instead
        counted bag by bag up to the first that reaches it.  A bag
        vertex that no layer holds raises ``GraphInputError``."""
        bags = self.decomposition.bags
        layer_of = self.layering.layer_of
        if isinstance(bags, _RootPathBags):
            ceiling = bags.layer_ceiling(layer_of)
            if ceiling is not None:
                return bags.ceiling_width(layer_of, ceiling)
        core, adds, drops = self.decomposition.deltas
        parent, order = self.decomposition.forest
        count = [0] * len(self.layering)
        try:
            for v in core:
                count[layer_of[v]] += 1
            best = max(count, default=0)
            path: list[int] = []
            for x in order:
                p = parent[x]
                while path and path[-1] != p:
                    y = path.pop()
                    for v in adds[y]:
                        count[layer_of[v]] -= 1
                    for v in drops[y]:
                        count[layer_of[v]] += 1
                for v in drops[x]:
                    count[layer_of[v]] -= 1
                for v in adds[x]:
                    i = layer_of[v]
                    c = count[i] = count[i] + 1
                    if c > best:
                        best = c
                path.append(x)
        except KeyError as exc:
            raise GraphInputError(f"bag vertex {exc.args[0]} lies in no layer") from None
        return best

    def restricted_to(self, keep: Iterable[int]) -> "LayeredDecomposition":
        """Restriction to a vertex subset: bags and layers intersected."""
        keep = frozenset(keep)
        td = TreeDecomposition(
            tuple(bag & keep for bag in self.decomposition.bags),
            self.decomposition.tree_edges,
        )
        layers = tuple(layer & keep for layer in self.layering.layers)
        return LayeredDecomposition(td, Layering(layers))


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> Report:
    """Check bag-tree shape, that every bag vertex is in G, edge
    coverage and subtree connectivity.

    With the bag tree rooted (``forest``), a vertex's bags form a
    subtree iff it is new -- in a bag but not in the parent's bag -- in
    exactly one bag, its top bag.  For two such vertices the bags of u
    and v meet iff v is in u's top bag or u is in v's top bag, since a
    common bag lies below both tops, and then the top read later in
    preorder holds the other end.  So one pass over the bags in preorder
    decides a valid decomposition in O(sum of changes + m): a bag's new
    vertices are the ones its ``deltas`` add, the bag itself is one set
    changed by each bag's deltas on the way down and back on the way up,
    and each edge is checked in the top bag of the end read last.  Only
    vertices new in several bags are looked up bag by bag, against the
    tree edges as given.
    """
    violations: list[str] = []
    b = len(td.bags)
    # tree shape: connected and acyclic on bag indices
    if b == 0:
        return Report.of(["decomposition has no bags"])
    if len(td.tree_edges) != b - 1:
        violations.append(
            f"tree has {len(td.tree_edges)} edges for {b} bags"
        )
    parent, order = td.forest
    if parent.count(-1) > 1:
        violations.append("decomposition tree is disconnected")
        return Report.of(violations)
    core, adds, drops = td.deltas
    nbrs = g.adjacency
    top: dict[int, int] = {}
    spread: set[int] = set()  # vertices new in more than one bag
    missed: set[tuple[int, int]] = set()  # edges the later top bag misses
    stray = dict.fromkeys((v for v in core if not 0 <= v < g.n), 0)  # least bag holding v
    rest: set[int] = set()  # the bag at x less the core
    path: list[int] = []  # the bags from the root to x
    for x in order:
        while path and path[-1] != parent[x]:
            y = path.pop()
            rest.difference_update(adds[y])
            rest.update(drops[y])
        path.append(x)
        rest.difference_update(drops[x])
        rest.update(adds[x])
        new = adds[x] if parent[x] >= 0 else core.union(adds[x])
        for v in new:
            if v in top:
                spread.add(v)
                continue
            top[v] = x
            if 0 <= v < g.n:
                for w in nbrs[v]:
                    if w not in rest and w in top and w not in core:
                        missed.update(((v, w), (w, v)))
            else:
                stray[v] = x
        if stray:
            for v in stray.keys() & rest:
                stray[v] = min(stray[v], x)
    bags = td.bags
    where: dict[int, list[int]] = {v: [] for v in spread}
    if spread:  # never in the core, which is new in the root bag only
        for i in range(b):
            for v in bags[i] & spread:
                where[v].append(i)
    for v in sorted(stray):
        violations.append(f"vertex {v} in bag {stray[v]} is not in G")
    for u, v in g.sorted_edges:
        if v in where:
            covered = u in core or any(u in bags[i] for i in where[v])
        elif u in where:
            covered = v in core or any(v in bags[i] for i in where[u])
        else:
            covered = u in top and v in top and (u, v) not in missed
        if not covered:
            violations.append(f"edge ({u},{v}) covered by no bag")
    for v in g.vertices():
        if v not in top:
            violations.append(f"vertex {v} in no bag")
        elif v in where:
            adj = td.tree_adjacency
            nodes = where[v]
            nodeset = set(nodes)
            comp = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in nodeset and y not in comp:
                        comp.add(y)
                        stack.append(y)
            if comp != nodeset:
                violations.append(f"bags of vertex {v} are not a subtree")
    return Report.of(violations)


class _CoreBags(Sequence):
    """A lazy bag sequence that holds the core, the vertices common to
    every bag, once.  It compares equal to the tuple of its bags."""

    __slots__ = ("core",)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _CoreBags)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class _DeltaBags(_CoreBags):
    """The bags of a decomposition text: the core and, per bag, its
    parent in the bag forest (-1 for a root) and the vertices it adds to
    and drops from the parent's bag; a root adds its bag less the core.
    Each root is the least bag of its tree, so ``order``, the forest's
    preorder, is the search ``TreeDecomposition.forest`` makes.  The
    first bag read builds every bag once and keeps them."""

    __slots__ = ("parent", "order", "adds", "drops", "tree_edges", "_bags")

    def __init__(
        self,
        core: frozenset[int],
        parent: list[int],
        order: list[int],
        adds: list[AbstractSet[int] | tuple[int, ...]],
        drops: list[AbstractSet[int] | tuple[int, ...]],
    ) -> None:
        self.core = core
        self.parent = parent
        self.order = order
        self.adds = adds
        self.drops = drops
        self.tree_edges = frozenset(
            (p, x) if p < x else (x, p) for x, p in enumerate(parent) if p >= 0
        )
        self._bags: tuple[frozenset[int], ...] | None = None

    def __len__(self) -> int:
        return len(self.parent)

    def _built(self) -> tuple[frozenset[int], ...]:
        parent, adds, drops = self.parent, self.adds, self.drops
        rests: list[frozenset[int]] = [frozenset()] * len(parent)
        for x in self.order:
            p = parent[x]
            rest = rests[p] if p >= 0 else frozenset()
            if drops[x]:
                rest = rest.difference(drops[x])
            if adds[x]:
                rest = rest.union(adds[x])
            rests[x] = rest
        self._bags = tuple(map(self.core.union, rests)) if self.core else tuple(rests)
        return self._bags

    def __getitem__(self, i: int) -> frozenset[int]:
        return (self._bags or self._built())[i]

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self._bags or self._built())


# ---------------------------------------------------------------------------
# Genus-driven layered decomposition (tree-cotree bags).
# ---------------------------------------------------------------------------


class _RootPathBags(_CoreBags):
    """The bags of ``genus_layered_decomposition``, stored as root paths.

    Bag f is Q | P(x) | P(y) | P(z) for the corners x, y, z of face f,
    where P(v) is the path from v to the root in the primal BFS tree.
    Only the parent and depth lists, the BFS tree's preorder intervals,
    three corners per face, Q and the core are kept, O(n + F + |Q|)
    words.  The core is Q plus the few vertices above every face's
    corners (``_common_beyond_q``); each bag's rest is the walk up from
    its corners to the core.  Vertex v lies in bag f iff v is in the
    core or a corner of f lies in v's subtree, an interval of preorder
    ranks; so the change between two bags is read off a few short walks
    (``deltas``).
    """

    __slots__ = ("_parent", "_depth", "_corners", "_rank", "_end", "q")

    def __init__(
        self, parent: list[int], depth: list[int], corners: list[int], q: frozenset[int]
    ) -> None:
        self._parent = parent  # the root is its own parent
        self._depth = depth
        self._corners = corners  # face f's corners at 3f, 3f+1, 3f+2
        self._rank, self._end = _preorder_intervals(parent)
        self.q = q
        self.core = q  # the walks of _common_beyond_q stop at Q
        self.core = q.union(self._common_beyond_q())

    def __len__(self) -> int:
        return len(self._corners) // 3

    def __getitem__(self, f: int) -> frozenset[int]:
        return self.core.union(self.outside(range(len(self))[f]))

    def __iter__(self) -> Iterator[frozenset[int]]:
        return map(self.core.union, map(self.outside, range(len(self))))

    def outside(self, f: int) -> set[int]:
        """The vertices of bag f outside the core.  The core and every
        root path are closed upwards, so the walk up from a corner stops
        at the first vertex in the core or already collected."""
        parent, core = self._parent, self.core
        out: set[int] = set()
        add = out.add
        for v in self._corners[3 * f : 3 * f + 3]:
            while v not in core and v not in out:
                add(v)
                v = parent[v]
        return out

    def deltas(
        self, parent: list[int], order: list[int]
    ) -> tuple[list[Sequence[int]], list[Sequence[int]]]:
        """``TreeDecomposition.deltas`` along a forest of these bags, in
        O(F + sum of changes).  A root adds its rest.  Bag x adds the
        vertices of bag x outside its parent bag p: the walk up from each
        corner of x that is not one of p's, up to the core, a vertex above
        a corner of p (a preorder interval holds that corner's rank) or a
        vertex already collected.  It drops the converse."""
        vparent, core, rank, end, corners = self._parent, self.core, self._rank, self._end, self._corners

        def beyond(src: list[int], dst: list[int]) -> list[int]:
            a, b, c = dst
            ra, rb, rc = rank[a], rank[b], rank[c]
            walked: list[int] = []
            for v in src:
                if v == a or v == b or v == c:
                    continue
                while v not in core:
                    r, e = rank[v], end[v]
                    if r <= ra < e or r <= rb < e or r <= rc < e or v in walked:
                        break
                    walked.append(v)
                    v = vparent[v]
            return walked

        adds: list[Sequence[int]] = [()] * len(order)
        drops: list[Sequence[int]] = [()] * len(order)
        for x in order:
            p = parent[x]
            if p < 0:
                adds[x] = tuple(self.outside(x))
                continue
            own, other = corners[3 * x : 3 * x + 3], corners[3 * p : 3 * p + 3]
            adds[x] = beyond(own, other)
            drops[x] = beyond(other, own)
        return adds, drops

    def _common_beyond_q(self) -> list[int]:
        """The vertices outside Q in every bag, in O(n + F) without a
        walk beyond face 0's.  Vertex v is in bag f iff a corner of f
        lies in v's subtree.  A vertex whose subtree is the whole tree is
        in every bag; the others of face 0 stay candidates while each
        next face has a corner in their interval, and the scan stops once
        none is left."""
        corners, rank, end = self._corners, self._rank, self._end
        n = len(rank)
        whole = []
        cand = []  # (first rank, rank past the subtree, vertex)
        for v in self.outside(0):
            (whole if end[v] - rank[v] == n else cand).append((rank[v], end[v], v))
        for f in range(3, len(corners), 3):
            if not cand:
                break
            x, y, z = rank[corners[f]], rank[corners[f + 1]], rank[corners[f + 2]]
            cand = [c for c in cand if c[0] <= x < c[1] or c[0] <= y < c[1] or c[0] <= z < c[1]]
        return [c[2] for c in whole + cand]

    def layer_ceiling(self, layer_of: dict[int, int]) -> int | None:
        """A bound on every bag's count in one layer, or None if a parent
        breaks its premise.  If each vertex's parent lies one layer up,
        or in layer 0 for a vertex of layer 0, a root path meets each
        layer i >= 1 at most once; then bag f = Q | P(x) | P(y) | P(z)
        has at most |Q & L_i| + 3 vertices in layer i >= 1, and at most
        |L_0| in layer 0.  The premise is checked in O(n)."""
        parent = self._parent
        try:
            layer = [layer_of[v] for v in range(len(parent))]
        except KeyError:
            return None
        if any(layer[p] != max(i - 1, 0) for i, p in zip(layer, parent)):
            return None
        in_q: dict[int, int] = {}
        for v in self.q:
            if layer[v]:
                in_q[layer[v]] = in_q.get(layer[v], 0) + 1
        ceiling = layer.count(0)
        if any(layer):
            ceiling = max(ceiling, 3 + max(in_q.values(), default=0))
        return ceiling

    def ceiling_width(self, layer_of: dict[int, int], ceiling: int) -> int:
        """``LayeredDecomposition.layered_width`` when ``ceiling`` bounds
        every bag's count in a layer: the core's count per layer plus each
        bag's rest, bag by bag, stopping at the first bag reaching it."""
        in_core: dict[int, int] = {}
        for v in self.core:
            i = layer_of[v]
            in_core[i] = in_core.get(i, 0) + 1
        best = max(in_core.values(), default=0)
        for f in range(len(self)):
            if best >= ceiling:
                break
            counts: dict[int, int] = {}
            for v in self.outside(f):
                i = layer_of[v]
                counts[i] = counts.get(i, 0) + 1
            for i, c in counts.items():
                best = max(best, c + in_core.get(i, 0))
        return best

    def top_rank(self, order: list[int]) -> list[int]:
        """``TreeDecomposition.top_rank`` in O(n log n + F).  A vertex v
        outside Q lies in the bags of the faces with a corner in its
        subtree, so its top bag has the least preorder rank among them;
        the ranks are pushed up the parent list, deepest vertices first.
        Q lies in every bag, so its top bag is the root bag."""
        parent, corners = self._parent, self._corners
        none = len(self)
        least = [none] * len(parent)
        for r in range(none - 1, -1, -1):
            f = 3 * order[r]
            for v in corners[f : f + 3]:
                least[v] = r
        # a vertex's children are one level deeper, or are the other roots
        # of a root clique, which only the least root (its own parent) adopts
        for v in sorted(range(len(parent)), key=self._depth.__getitem__, reverse=True):
            p = parent[v]
            if least[v] < least[p]:
                least[p] = least[v]
        for v in self.q:
            least[v] = 0
        return least


def _preorder_intervals(parent: list[int]) -> tuple[list[int], list[int]]:
    """(rank, end) of a forest given by its parent list, each root its
    own parent: the preorder rank of each vertex and the rank just past
    its subtree, so u lies in v's subtree iff rank[v] <= rank[u] < end[v]."""
    n = len(parent)
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p != v:
            kids[p].append(v)
    order: list[int] = []
    stack = [v for v, p in enumerate(parent) if p == v]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    size = [1] * n
    for v in reversed(order):
        if parent[v] != v:
            size[parent[v]] += size[v]
    return rank, [r + k for r, k in zip(rank, size)]


@dataclass(frozen=True)
class GenusDecompositionResult:
    """Layered decomposition of an embedded graph rooted at a clique,
    plus the path set Q whose removal leaves layered width <= 3."""

    ld: LayeredDecomposition
    apex_paths: frozenset[int]  # Q
    genus: int
    root_clique: tuple[int, ...]

    @property
    def restricted_width(self) -> int:
        return self.ld.restricted_to(
            set(self.ld.layering.layer_of) - self.apex_paths
        ).layered_width

    def q_per_layer(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.apex_paths:
            i = self.ld.layering.layer_of[v]
            out[i] = out.get(i, 0) + 1
        return out


def genus_layered_decomposition(
    eg: EmbeddedGraph, root_clique: Iterable[int]
) -> GenusDecompositionResult:
    """Layered tree decomposition of layered width <= max(2g+3, |K|)
    whose first layer is the given clique K.

    Triangulate, split the edges by tree-cotree with the primal tree grown
    from K (layers are its depths), and take one bag per face: the root
    paths of its corners plus the root paths Q of the leftover dual edges'
    endpoints.  A root path has one vertex in each layer >= 1 and ends at
    the least root, so a bag has at most 2g+3 vertices per layer >= 1 and
    at most |K| in layer 0; Q - K has at most 2g vertices per layer, and
    without it a bag has at most 3 per layer when |K| <= 3.

    The bags are a lazy ``_RootPathBags`` sequence holding the BFS parent
    and depth lists, the face corners and Q once, in O(n + F + |Q|) words
    for F faces, rather than F frozensets that each copy Q.  Its width,
    layered width, ``top_rank`` and text lines are derived without
    building a bag.  A layered width above max(2g+3, |K|) is a fault of
    this construction and raises ``DecompositionSelfCheckError``; the check
    stops at the first bag that reaches the proved ceiling
    (``_RootPathBags.layer_ceiling``).
    """
    clique = tuple(sorted(set(root_clique)))
    if not clique:
        raise GraphInputError("root clique must be non-empty")
    if not 0 <= clique[0] <= clique[-1] < eg.n:
        raise GraphInputError(f"root clique {clique} has a vertex outside G")
    base = eg.to_graph()
    if not base.is_clique(clique):
        raise GraphInputError("root set is not a clique")
    g = eg.euler_genus

    if eg.n < 3:
        layering, _ = bfs_layering(base, clique)
        ld = LayeredDecomposition(TreeDecomposition.single_bag(range(eg.n)), layering)
        return GenusDecompositionResult(ld, frozenset(), g, clique)

    tri = triangulate(eg)
    tc = tree_cotree(tri, clique)
    depth, parent = tc.depth, tc.parent
    layer_sets: list[set[int]] = [set() for _ in range(max(depth) + 1)]
    for v, d in enumerate(depth):
        layer_sets[d].add(v)

    q: set[int] = set()
    for e in tc.extra_edges:
        for v in tri.edge_list[e]:
            while v not in q:
                q.add(v)
                v = parent[v]

    corners = list(map(tri.tail.__getitem__, itertools.chain.from_iterable(tri.faces)))
    bags = _RootPathBags(parent, depth, corners, frozenset(q))
    tree_edges = frozenset(
        (p, f) if p < f else (f, p) for f, p in enumerate(tc.dual_parent) if p >= 0
    )
    layering = Layering(tuple(frozenset(layer) for layer in layer_sets))
    ld = LayeredDecomposition(TreeDecomposition(bags, tree_edges), layering)
    cap = max(2 * g + 3, len(clique))
    if ld.layered_width > cap:
        raise DecompositionSelfCheckError(
            f"layered width {ld.layered_width} exceeds 2g+3 = {2 * g + 3} "
            f"and |K| = {len(clique)}"
        )
    return GenusDecompositionResult(ld, frozenset(q) - set(clique), g, clique)


# ---------------------------------------------------------------------------
# Good decompositions and clique-sums.
# ---------------------------------------------------------------------------

# A good-decomposition provider maps a requested clique (possibly empty ->
# the provider picks a default root) to a LayeredDecomposition whose first
# layer is exactly that clique.
GoodProvider = Callable[[tuple[int, ...]], LayeredDecomposition]


def planar_good_provider(g: Graph) -> GoodProvider:
    """3-good provider for a connected planar graph."""
    eg = embed_planar(g)

    def provider(clique: tuple[int, ...]) -> LayeredDecomposition:
        root = clique if clique else (0,)
        return genus_layered_decomposition(eg, root).ld

    return provider


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
        layering = bfs_layering(g, root)[0]
        for order in itertools.permutations(g.vertices()):
            td = _treedec_from_elimination(g, order)
            ld = LayeredDecomposition(td, layering)
            if ld.layered_width <= ell:
                return ld
        raise DecompositionError(
            f"no layered-width-{ell} decomposition found for the given root"
        )

    return provider


def clique_sum_compose(
    g1: Graph,
    ld1: LayeredDecomposition,
    g2: Graph,
    provider2: GoodProvider,
    join: Sequence[tuple[int, int]],
    deleted_edges: Iterable[tuple[int, int]] = (),
) -> tuple[Graph, LayeredDecomposition, dict[int, int]]:
    """Clique-sum of G1 and G2, overlaying a good decomposition of G2
    onto the layering of G1.

    ``join`` identifies clique vertices pairwise as (v in G1, w in G2).
    ``deleted_edges`` are clique edges (as G1 pairs) to drop from the
    sum.  Returns the composed graph, its layered decomposition and the
    G2-vertex -> composed-vertex map.  The layered width of the result is
    at most the maximum of the two inputs'.
    """
    c1 = [v for v, _ in join]
    c2 = [w for _, w in join]
    if len(set(c1)) != len(join) or len(set(c2)) != len(join):
        raise GraphInputError("join lists repeat a vertex")
    if not join:
        raise GraphInputError("join must identify at least one vertex")
    if not g1.is_clique(c1) or not g2.is_clique(c2):
        raise GraphInputError("join sets must be cliques in both graphs")

    vmap2: dict[int, int] = {}
    for v, w in join:
        vmap2[w] = v
    nxt = g1.n
    for w in range(g2.n):
        if w not in vmap2:
            vmap2[w] = nxt
            nxt += 1
    deleted = {(min(a, b), max(a, b)) for a, b in deleted_edges}
    clique_pairs = {
        (min(a, b), max(a, b)) for a in c1 for b in c1 if a != b
    }
    if not deleted <= clique_pairs:
        raise GraphInputError("deleted edges must lie inside the join clique")
    edges = {e for e in g1.edges if e not in deleted}
    for u, v in g2.edges:
        a, b = vmap2[u], vmap2[v]
        e = (min(a, b), max(a, b))
        if e not in deleted:
            edges.add(e)
    composed = Graph.from_edges(nxt, edges)

    layer_of1 = ld1.layering.layer_of
    x_layers = sorted({layer_of1[v] for v in c1})
    if len(x_layers) > 2 or (len(x_layers) == 2 and x_layers[1] - x_layers[0] != 1):
        raise DecompositionError(
            "join clique spans non-consecutive layers of the G1 layering"
        )
    i0 = x_layers[0]
    x_prime2 = tuple(sorted(w for v, w in join if layer_of1[v] == i0))

    ld2 = provider2(x_prime2)
    layer_of2 = ld2.layering.layer_of
    if frozenset(x_prime2) != ld2.layering.layers[0]:
        raise DecompositionError("provider did not root its layering at X'")
    for v, w in join:
        if layer_of1[v] != i0 + layer_of2[w]:
            raise DecompositionError("layerings disagree on the join clique")

    n_layers = max(len(ld1.layering), i0 + len(ld2.layering))
    layers = [set(layer) for layer in ld1.layering.layers]
    layers.extend(set() for _ in range(n_layers - len(layers)))
    for w in range(g2.n):
        if w not in c2:
            layers[i0 + layer_of2[w]].add(vmap2[w])

    bags1 = tuple(ld1.decomposition.bags)
    bags2 = tuple(
        frozenset(vmap2[w] for w in bag) for bag in ld2.decomposition.bags
    )
    x_in_g = frozenset(c1)
    b1 = next(i for i, bag in enumerate(bags1) if x_in_g <= bag)
    b2 = next(i for i, bag in enumerate(bags2) if x_in_g <= bag)
    offset = len(bags1)
    tree_edges = set(ld1.decomposition.tree_edges)
    tree_edges |= {
        (x + offset, y + offset) for x, y in ld2.decomposition.tree_edges
    }
    tree_edges.add((b1, b2 + offset))
    ld = LayeredDecomposition(
        TreeDecomposition(bags1 + bags2, frozenset(tree_edges)),
        Layering.from_sets(layers),
    )
    return composed, ld, vmap2


# ---------------------------------------------------------------------------
# Separators from decompositions.
# ---------------------------------------------------------------------------


def _halving_bag(td: TreeDecomposition, sample: Collection[int]) -> int:
    """Bag whose removal leaves at most half the sample in every
    component of G - B; the sample is non-empty and has no negative
    vertex.

    Count each sample vertex at its top bag, whose preorder rank
    ``td.top_rank`` holds.  The answer is the deepest bag whose subtree
    holds more than half of the counts: a component of
    G - B lies in one component of the bag tree minus B, a child subtree
    holds at most half of the counts, and the side above holds fewer
    than half.  A subtree is an interval of preorder ranks, so every
    heavy bag contains the median of the sorted top ranks in its
    subtree; binary lifting from the bag at that median finds the
    deepest one.  A call costs O(|S| log |S|) on top of the
    decomposition's cached tables, independent of the number of bags.
    """
    parent, order, tin = td.rooted
    end = td.subtree_end
    rank = td.top_rank
    none = len(order)
    try:
        tins = sorted(map(rank.__getitem__, sample))
    except IndexError:
        tins = [none]
    if tins[-1] == none:
        v = next(v for v in sample if v >= len(rank) or rank[v] == none)
        raise DecompositionError(f"sample vertex {v} appears in no bag")
    total = len(tins)

    def heavy(x: int) -> bool:
        inside = bisect_left(tins, end[x]) - bisect_left(tins, tin[x])
        return 2 * inside > total

    x = order[tins[total // 2]]
    if heavy(x):
        return x
    # the root is heavy, so x stays strictly below the deepest heavy bag
    for jump in reversed(td.ancestor_jumps):
        y = jump[x]
        if y >= 0 and not heavy(y):
            x = y
    return parent[x]


def _balanced_sides(weights: Sequence[int], total: int) -> tuple[list[int], list[int]]:
    """Group components into two sides of at most 2/3 of a sample of
    size ``total`` each; returns the component indices on each side.

    ``weights[i]`` is the sample count of component i, at most total/2,
    and the weights sum to W <= total; the components come in order of
    least vertex, which breaks weight ties.  Components go greedily
    (descending weight) to the lighter side.  Let w be the last weight
    placed on the final heavy side H: that side was the lighter one then, so
    H - w <= W - H, i.e. H <= (W + w)/2 <= 2/3 total when w <= total/3.
    If w > total/3, only the first two weights can exceed total/3, so w
    is the first or second weight and alone on its side: H = w <= total/2.
    """
    sides: tuple[list[int], list[int]] = ([], [])
    count = [0, 0]
    # a stable sort, so equal weights keep their order
    for i in sorted(range(len(weights)), key=weights.__getitem__, reverse=True):
        s = 0 if count[0] <= count[1] else 1
        sides[s].append(i)
        count[s] += weights[i]
    if 3 * max(count) > 2 * total:
        raise DecompositionError(
            f"side of weight {max(count)} exceeds 2/3 of {total}: "
            "a component outweighs half the sample"
        )
    return sides


def separator_from_decomposition(
    g: Graph, td: TreeDecomposition, sample: Iterable[int]
) -> tuple[int, Separation]:
    """Bag whose removal halves the sample, regrouped to a 2/3-balanced
    separation of G.

    Every component of G - B holds at most half the sample; the
    components are grouped by their sample counts with
    ``_balanced_sides``.
    """
    sample = frozenset(sample)
    if not sample:
        raise GraphInputError("sample must be non-empty")
    if min(sample) < 0:
        raise DecompositionError(f"sample vertex {min(sample)} appears in no bag")
    idx = _halving_bag(td, sample)
    bag = td.bags[idx]
    comps = _components_within(g, frozenset(g.vertices()) - bag)
    weights = [len(c & sample) for c in comps]
    if any(2 * w > len(sample) for w in weights):
        raise DecompositionError("no halving bag found: invalid decomposition")
    side1, side2 = (
        bag.union(*(comps[i] for i in side)) for side in _balanced_sides(weights, len(sample))
    )
    return idx, Separation(side1, side2)


def layered_separation(
    g: Graph, ld: LayeredDecomposition, sample: Iterable[int]
) -> Separation:
    """Balanced separation whose separator meets each layer in at most
    ``ld.layered_width`` vertices (the separator is one bag)."""
    _, sep = separator_from_decomposition(g, ld.decomposition, sample)
    return sep


# ---------------------------------------------------------------------------
# Reed's converse: separations -> tree decomposition of width < 4k.
# ---------------------------------------------------------------------------

SeparationOracle = Callable[[frozenset[int]], Separation]


def treedec_from_separations(
    g: Graph, oracle: SeparationOracle, k: int
) -> TreeDecomposition:
    """Tree decomposition with bags of size at most 4k from a
    2/3-balanced separation oracle of order at most k."""
    if k < 1:
        raise GraphInputError("k must be positive")
    bags: list[frozenset[int]] = []
    tree_edges: list[tuple[int, int]] = []

    def check(sep: Separation, w: frozenset[int]) -> None:
        rep = validate_separation(g, sep, w, Fraction(2, 3))
        if not rep.ok or sep.order > k:
            raise DecompositionError(
                f"oracle broke its contract: order={sep.order}, {rep.violations}"
            )

    def build(u: frozenset[int], w: frozenset[int]) -> int:
        if len(u) <= 4 * k:
            bags.append(u)
            return len(bags) - 1
        sep = oracle(w)
        check(sep, w)
        b = w | (sep.intersection & u)
        if b == w:
            b = b | {min(u - w)}
        if len(b) > 4 * k:
            raise DecompositionError("root bag exceeded 4k")
        bags.append(b)
        me = len(bags) - 1
        for comp in _components_within(g, u - b):
            nbrs = frozenset(
                x for v in comp for x in g.adjacency[v] if x in b
            )
            if len(nbrs) > 3 * k:
                raise DecompositionError("child boundary exceeded 3k")
            child = build(comp | nbrs, nbrs)
            tree_edges.append((me, child))
        return me

    whole = frozenset(g.vertices())
    if not whole:
        return TreeDecomposition.single_bag(())
    roots = []
    for comp in _components_within(g, whole):
        roots.append(build(comp, frozenset()))
    for a, b in zip(roots, roots[1:]):
        tree_edges.append((a, b))
    return TreeDecomposition(tuple(bags), frozenset(tree_edges))


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


# ---------------------------------------------------------------------------
# sqrt(kn) treewidth from layered width (residue-class deletion).
# ---------------------------------------------------------------------------


def norin_treewidth(g: Graph, ld: LayeredDecomposition) -> TreeDecomposition:
    """Tree decomposition of width at most 2*sqrt(k*n) from a layered
    decomposition of layered width k.

    Deletes the lightest residue class of layers (period ceil(sqrt(n/k)))
    and decomposes each leftover run of consecutive layers by restricting
    the input decomposition, adding the deleted class to every bag.
    """
    n = g.n
    k = max(ld.layered_width, 1)
    if n == 0:
        return TreeDecomposition.single_bag(())
    p = math.isqrt((n + k - 1) // k)
    if p * p * k < n:
        p += 1
    p = max(p, 1)
    layers = ld.layering.layers
    classes: list[set[int]] = [set() for _ in range(p)]
    for i, layer in enumerate(layers):
        classes[i % p] |= layer
    j = min(range(p), key=lambda j: (len(classes[j]), j))
    w = frozenset(classes[j])

    bags: list[frozenset[int]] = []
    tree_edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for comp in _components_within(g, frozenset(g.vertices()) - w):
        sub = ld.restricted_to(comp)
        offset = len(bags)
        nonempty = False
        for bag in sub.decomposition.bags:
            bags.append(bag | w)
            nonempty = nonempty or bool(bag)
        tree_edges.extend(
            (x + offset, y + offset) for x, y in sub.decomposition.tree_edges
        )
        roots.append(offset)
    if not bags:
        bags.append(w)
        roots.append(0)
    for a, b in zip(roots, roots[1:]):
        tree_edges.append((a, b))
    td = TreeDecomposition(tuple(bags), frozenset(tree_edges))
    bound = 2 * math.sqrt(k * n)
    if td.width > bound:
        raise DecompositionError(
            f"width {td.width} exceeds 2*sqrt(kn) = {bound:.2f}"
        )
    return td


# ---------------------------------------------------------------------------
# Closed-form bound report.
# ---------------------------------------------------------------------------


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
    out = []
    for v in g.vertices():
        _, tree = bfs_layering(g, [v])
        out.append(max(tree.depth.values()))
    return out


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


# ---------------------------------------------------------------------------
# Exact treewidth (elimination-ordering DP over vertex subsets).
# ---------------------------------------------------------------------------


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
# Text format: "bags B", the core line "core: v1 v2 ..." (the vertices in
# every bag, sorted; left out when there are none), then one line per bag
# in id order, each about the bag less the core:
#   "x: v1 v2 ..."           a root of the bag forest, its vertices listed;
#   "x < p + a1 a2 - d1 d2"  a bag whose parent is bag p, as the vertices
#                            it adds to bag p's and drops from it, either
#                            part left out when empty;
#   "x < p: v1 v2 ..."       the same bag listed, written when shorter.
# The parent fields are the tree: bag 0 roots its component, the least bag
# roots any other, and each parent is the neighbour towards the root.  The
# layered variant appends the layering block.  Older texts list every bag
# on an "x: ..." line and end the decomposition with "tree" and the tree
# edges as "x y" lines (B - 1 of them in a layered text); they still parse,
# with or without a core line.
# ---------------------------------------------------------------------------


def format_decomposition(td: TreeDecomposition) -> str:
    """The text of ``td``, a function of its value: root-path, parsed and
    explicit bags of equal value give equal text.  A bag tree with a cycle
    has no parent fields and raises ``DecompositionError``."""
    b = len(td.bags)
    parent, order = td.forest
    if len(td.tree_edges) != b - parent.count(-1):
        raise DecompositionError("the bag tree has a cycle and cannot be written")
    core, adds, drops = td.deltas
    bags = td.bags
    token = _TokenStrs().__getitem__
    lines = [f"bags {b}"] + [""] * b
    if core:
        lines[0] += "\ncore: " + " ".join(map(token, sorted(core)))
    size = [0] * b  # of each bag less the core
    for x in order:
        p, a, d = parent[x], adds[x], drops[x]
        size[x] = len(a) + (size[p] - len(d) if p >= 0 else 0)
        if p < 0:
            line = f"{x}: " + " ".join(map(token, sorted(a)))
        elif size[x] < len(a) + len(d) + bool(a) + bool(d):
            # listing the bag is shorter, so the bag is small
            rest = bags.outside(x) if isinstance(bags, _RootPathBags) else bags[x] - core
            line = f"{x} < {p}: " + " ".join(map(token, sorted(rest)))
        else:
            line = f"{x} < {p}"
            if a:
                line += " + " + " ".join(map(token, sorted(a)))
            if d:
                line += " - " + " ".join(map(token, sorted(d)))
        lines[x + 1] = line
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> TreeDecomposition:
    return _decomposition_from_lines(text.splitlines())


class _TokenInts(dict):
    """``int(tok)`` per distinct token string, parsed on its first
    lookup, so equal tokens share one ``int`` object.  Vertices and bag
    ids are never negative, so a negative token raises ``ValueError``."""

    def __missing__(self, tok: str) -> int:
        v = int(tok)
        if v < 0:
            raise ValueError(f"negative token {tok!r}")
        self[tok] = v
        return v


class _TokenStrs(dict):
    """``str(v)`` per distinct vertex, made on its first lookup."""

    def __missing__(self, v: int) -> str:
        tok = self[v] = str(v)
        return tok


def _is_core_line(line: str) -> bool:
    return line.partition(":")[0].strip() == "core"


def _decomposition_from_lines(raw: Iterable[str]) -> TreeDecomposition:
    """The bags as ``_DeltaBags``, checked and made exact by
    ``_resolve_deltas``; the tree from the parent fields, or from the
    tree block of an older text.  Every token is parsed once
    (``_TokenInts``)."""
    lines = [ln for ln in (s.strip() for s in raw) if ln]
    b = _bag_count(lines[0] if lines else "")
    ints = _TokenInts().__getitem__
    core: frozenset[int] = frozenset()
    start = 1
    if b and len(lines) > 1 and _is_core_line(lines[1]):
        try:
            core = frozenset(map(ints, lines[1].partition(":")[2].split()))
        except ValueError as exc:
            raise GraphInputError(f"bad core line {lines[1]!r}") from exc
        start = 2
    if len(lines) < start + b:
        raise GraphInputError("truncated decomposition")
    body, tail = lines[start : start + b], lines[start + b :]
    parent = [-1] * b
    adds: list[AbstractSet[int] | tuple[int, ...]] = [()] * b
    drops: list[AbstractSet[int] | tuple[int, ...] | None] = [None] * b  # None: listed
    for x, ln in enumerate(body):
        head, listed, vs = ln.partition(":")
        if not listed:
            head, _, dropped = ln.partition("-")
            head, _, vs = head.partition("+")
        bag_id, child, up = head.partition("<")
        has_parent = bool(child) or not listed
        try:
            given = int(bag_id)
            if listed:
                adds[x] = frozenset(map(ints, vs.split()))
            else:
                adds[x] = tuple(map(ints, vs.split()))
                drops[x] = tuple(map(ints, dropped.split()))
            if has_parent:
                parent[x] = int(up)
        except ValueError as exc:
            what = "misplaced core" if head.strip() == "core" else "bad bag"
            raise GraphInputError(f"{what} line {ln!r}") from exc
        if given != x:
            raise GraphInputError(f"bag ids must be consecutive, got {bag_id.strip()!r}")
        if has_parent and not (0 <= parent[x] < b and parent[x] != x):
            raise GraphInputError(f"bad parent in bag line {ln!r}")
    if tail and tail[0] != "tree":
        raise GraphInputError(f"expected 'tree' or the end after the bag list, got {tail[0]!r}")
    if tail and parent.count(-1) < b:
        raise GraphInputError("a text with a tree block has no parent fields")
    bags = _resolve_deltas(core, parent, adds, drops, body)
    if not tail:
        return TreeDecomposition(bags, bags.tree_edges)
    edges = set()
    for ln in tail[1:]:
        try:
            x, y = map(ints, ln.split())
        except ValueError:
            x = y = -1
        if not (0 <= x < b and 0 <= y < b) or x == y:
            raise GraphInputError(f"bad tree edge {ln!r}")
        edges.add((x, y) if x < y else (y, x))
    return TreeDecomposition(bags, frozenset(edges))


def _resolve_deltas(
    core: frozenset[int],
    parent: list[int],
    adds: list,
    drops: list,
    lines: list[str],
) -> "_DeltaBags":
    """The bags of parsed bag lines, checked in one search of the forest
    the parent fields give, with the bag it is at held as one running
    set.  A line that adds a vertex its parent's bag holds, drops one it
    lacks, names one twice or repeats a core vertex, parents that close a
    cycle, and a root that is not the least bag of its component raise
    ``GraphInputError``.  A listed bag (``drops`` None) becomes its
    change from its parent, and any vertex in every bag moves into the
    core, so the value alone fixes the fields."""
    b = len(parent)
    chain = itertools.chain.from_iterable
    if core and not (core.isdisjoint(chain(adds)) and core.isdisjoint(chain(filter(None, drops)))):
        x = next(x for x in range(b) if not core.isdisjoint((*adds[x], *(drops[x] or ()))))
        raise GraphInputError(f"bag line {lines[x]!r} repeats a core vertex")
    kids: list[list[int]] = [[] for _ in range(b)]
    roots = []
    for x, p in enumerate(parent):
        (roots if p < 0 else kids[p]).append(x)
    order: list[int] = []
    bag: set[int] = set()  # the rest of the bag on top of path
    path: list[int] = []
    for r in roots:
        start = len(order)
        stack = [r]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(kids[x])
            p = parent[x]
            while path and path[-1] != p:
                y = path.pop()
                bag.difference_update(adds[y])
                bag.update(drops[y])
            path.append(x)
            a, d = adds[x], drops[x]
            if d is None:
                adds[x], drops[x] = a.difference(bag), bag.difference(a)
                bag.difference_update(drops[x])
                bag.update(adds[x])
                continue
            k = len(bag)
            if d:
                bag.difference_update(d)
                if len(bag) + len(d) != k:
                    raise GraphInputError(f"bag line {lines[x]!r} drops a vertex bag {p} lacks")
                k -= len(d)
            if a:
                bag.update(a)
                if len(bag) != k + len(a) or d and not bag.isdisjoint(d):
                    raise GraphInputError(f"bag line {lines[x]!r} adds a vertex bag {p} holds")
        least = min(order[start:])
        if least != r:
            raise GraphInputError(f"bag {r} is a root, but bag {least} is in its tree")
    if len(order) < b:
        stuck = min(set(range(b)).difference(order))
        raise GraphInputError(f"bag parents form a cycle through bag {stuck}")
    common = set(adds[roots[0]]) if roots else set()
    for r in roots[1:]:
        common.intersection_update(adds[r])
    for d in drops:
        if not common:
            break
        common.difference_update(d)
    if common:
        core = core.union(common)
        for r in roots:
            adds[r] = tuple(v for v in adds[r] if v not in common)
    return _DeltaBags(core, parent, order, adds, drops)


def _bag_count(header: str) -> int:
    """B from the header line "bags B"."""
    words = header.split()
    if len(words) == 2 and words[0] == "bags":
        try:
            b = int(words[1])
        except ValueError:
            b = -1
        if b >= 0:
            return b
    raise GraphInputError("decomposition must start with 'bags B'")


def format_layered_decomposition(ld: LayeredDecomposition) -> str:
    from .graphs import format_layering

    return format_decomposition(ld.decomposition) + format_layering(ld.layering)


def parse_layered_decomposition(text: str) -> LayeredDecomposition:
    from .graphs import parse_layering

    lines = text.splitlines()
    # the decomposition is the header, the core line if B > 0 and line 2
    # is one, and B bag lines, then in an older text "tree" and B - 1 tree
    # edge lines; every line after it, blank or not, is a layer
    filled = [i for i, ln in enumerate(lines) if ln.strip()]
    b = _bag_count(lines[filled[0]] if filled else "")
    end = 1 + (b > 0 and len(filled) > 1 and _is_core_line(lines[filled[1]])) + b
    if len(filled) > end and lines[filled[end]].strip() == "tree":
        end += 1 + max(b - 1, 0)
    cut = filled[end - 1] + 1 if len(filled) >= end else len(lines)
    td = _decomposition_from_lines(itertools.islice(lines, cut))
    layering = parse_layering("".join(ln + "\n" for ln in lines[cut:]))
    return LayeredDecomposition(td, layering)
