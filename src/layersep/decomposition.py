"""Tree decompositions with layered width.

Implements the genus-driven layered decomposition (tree-cotree bags), the
clique-sum composition of good decompositions, balanced-separator
extraction from a decomposition, the converse recursion building a
decomposition from a separation oracle, the sqrt(kn) treewidth
construction and the decomposition text.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Sequence
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


def _tree_lists(b: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Each of ``b`` bags' neighbours over the given edges, ascending."""
    adj: list[list[int]] = [[] for _ in range(b)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    return [sorted(a) for a in adj]


def _child_links(parent: list[int]) -> tuple[list[int], list[int]]:
    """(first, after) of the forest of a parent list (a root is -1 or its
    own parent): each vertex's greatest child, and the next lesser child
    of its parent; -1 where there is none.  Two flat lists, not a list of
    children per vertex."""
    first = [-1] * len(parent)
    after = [-1] * len(parent)
    for v, p in enumerate(parent):
        if p >= 0 and p != v:
            after[v], first[p] = first[p], v
    return first, after


def _preorder(
    parent: list[int], stack: list[int], links: tuple[list[int], list[int]] | None = None
) -> list[int]:
    """Preorder of the trees of a parent list (a root is -1 or its own
    parent) from the roots in ``stack``, the last first, each vertex's
    children from the greatest down (``_child_links``, made here unless
    given).  That is a depth-first search pushing children in ascending
    order, so on a tree it is the search ``_bag_forest`` makes, since
    every neighbour but the parent is new."""
    first, after = links or _child_links(parent)
    order: list[int] = []
    for r in reversed(stack):
        x = r
        while True:
            order.append(x)
            if first[x] >= 0:
                x = first[x]
                continue
            while after[x] < 0 and x != r:  # up to the next subtree to search
                x = parent[x]
            if x == r:
                break
            x = after[x]
    return order


def _walk(parent: list[int], order: list[int], links: tuple[list[int], list[int]], start):
    """Each bag x of the preorder of the child ``links`` with its parent's
    running state, a ``set`` or a count ``list``, for the caller to change
    into x's in place: the object left at the parent for the child visited
    next, a copy for each later sibling, ``start.copy()`` at a root.  No
    change is ever undone."""
    first, after = links
    kept: dict = {}  # the states of bags with children still to visit
    for x in order:  # a root first
        p = parent[x]
        if p < 0:
            state = start.copy()
        elif first[p] != x:
            state = kept[p].copy() if after[x] >= 0 else kept.pop(p)
        yield x, state
        if first[x] >= 0 and after[first[x]] >= 0:
            kept[x] = state.copy()


def _bag_forest(b: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """(parent, preorder) of a depth-first search of the bag graph from
    bag 0, then from the least bag not yet reached, neighbours pushed in
    ascending order; parent -1 marks each search's root.  A disconnected
    graph gives a spanning forest, one with a cycle a spanning tree."""
    adj = _tree_lists(b, edges)
    parent = [-2] * b  # -2: not reached yet
    order: list[int] = []
    for r in range(b):
        if parent[r] != -2:
            continue
        parent[r] = -1
        stack = [r]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adj[x]:
                if parent[y] == -2:
                    parent[y] = x
                    stack.append(y)
    return parent, order


class TreeDecomposition:
    """Bags indexed 0..b-1 joined by a forest on the bag indices.

    One value, whoever made it: ``forest``, the bag forest as (parent,
    preorder) lists of ``_bag_forest``'s search; the ``core``, the
    vertices in every bag; and ``deltas``, each bag's change from its
    parent.  Width, layered width, ``top_rank``, validation and the text
    read the bags through these, and ``bags`` indexes and compares equal
    like the tuple of the bags.  The producers differ only in how they
    first fill these fields, each on first use:

    - ``TreeDecomposition(bags, tree_edges)`` keeps the bags and edges it
      is given and searches the edges once; edges that are not a forest
      are reported by validation and refused by the text;
    - the text parser hands over the forest, core and deltas it checked,
      ``tree_edges`` is read off ``parent`` and every bag is built on the
      first read of one;
    - ``genus_layered_decomposition`` holds root paths (``_RootPaths``)
      and turns their dual tree over at bag 0.  They give bag x less the
      core (``outside``), the top ranks and the layer ceiling cheaply and
      the deltas on demand; each bag is built on its read and kept by no
      one.
    """

    def __init__(self, bags: Iterable[AbstractSet[int]], tree_edges: Iterable[tuple[int, int]]):
        self.__dict__.update(bags=tuple(bags), tree_edges=frozenset(tree_edges), _paths=None)

    @classmethod
    def _of(cls, core, forest=None, deltas=None, paths=None) -> "TreeDecomposition":
        """From the core, with the forest and (adds, drops) or root paths."""
        td = cls.__new__(cls)
        td.__dict__.update(core=core, _paths=paths, _non_forest=None)
        if forest is not None:
            td.__dict__.update(forest=forest, deltas=(core, *deltas))
        return td

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TreeDecomposition is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self.tree_edges == other.tree_edges and self.bags == other.bags

    def __hash__(self) -> int:
        return hash(self.tree_edges)

    @staticmethod
    def single_bag(vs: Iterable[int]) -> "TreeDecomposition":
        return TreeDecomposition((frozenset(vs),), ())

    def __getattr__(self, name: str) -> "_BagView":
        """``bags`` when none are held: a fresh view, so it forms no cycle."""
        if name != "bags":
            raise AttributeError(name)
        return _BagView(self)

    @cached_property
    def _built(self) -> tuple[frozenset[int], ...]:
        """Every parsed bag, built along the forest from ``deltas`` on the
        first read of one; from then on ``bags`` is this tuple."""
        core, adds, drops = self.deltas
        bags = [core] * len(adds)
        for x, rest in _walk(*self.forest, self._links, set()):
            rest.difference_update(drops[x])
            rest.update(adds[x])
            bags[x] = core.union(rest)
        self.__dict__["bags"] = tuple(bags)
        return self.bags

    @cached_property
    def forest(self) -> tuple[list[int], list[int]]:
        """(parent, preorder) of ``_bag_forest``'s search of the given
        edges or of the root paths' dual tree; the parser sets it."""
        if self._paths is not None:  # a tree: the path from bag 0 to its root turns over
            dual = self._paths.dual_parent
            parent, x, up = dual.copy(), 0, -1
            while x >= 0:
                parent[x], up, x = up, x, dual[x]
            links = self.__dict__["_links"] = _child_links(parent)
            return parent, _preorder(parent, [0], links)
        b, edges = len(self.bags), self.tree_edges
        ends = sorted(itertools.chain.from_iterable(edges))
        if ends and not 0 <= ends[0] <= ends[-1] < b:
            raise DecompositionError(f"a tree edge joins no two of the {b} bags")
        return _bag_forest(b, edges)

    @cached_property
    def _links(self) -> tuple[list[int], list[int]]:
        """``_child_links`` of ``forest``, kept by root paths and the parser."""
        return _child_links(self.forest[0])

    @cached_property
    def tree_edges(self) -> frozenset[tuple[int, int]]:
        """(lesser, greater) per bag and its parent; the public
        constructor keeps the edges it was given."""
        return frozenset((min(x, p), max(x, p)) for x, p in enumerate(self.forest[0]) if p >= 0)

    @cached_property
    def _non_forest(self) -> frozenset[tuple[int, int]] | None:
        """The given edges if they are not a forest, else None."""
        parent = self.forest[0]
        return None if len(self.tree_edges) == len(parent) - parent.count(-1) else self.tree_edges

    @cached_property
    def core(self) -> frozenset[int]:
        """The vertices in every bag."""
        bags = self.bags
        return frozenset(bags[0]).intersection(*bags[1:]) if bags else frozenset()

    def outside(self, x: int) -> AbstractSet[int]:
        """Bag x less the core; root paths walk up from the bag's corners
        rather than build it."""
        return self._paths.outside(x) if self._paths else self.bags[x] - self.core

    @property
    def width(self) -> int:
        return len(self.core) + max(self._rest_sizes()) - 1

    def _rest_sizes(self) -> list[int]:
        """Each bag's size less the core, and a 0 last for a root's parent -1."""
        _, adds, drops = self.deltas
        parent, order = self.forest
        size = [0] * (len(order) + 1)
        for x in order:
            size[x] = size[parent[x]] + len(adds[x]) - len(drops[x])
        return size

    @cached_property
    def rooted(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(parent, preorder, tin, end) with the tree rooted at bag 0: bag
        y lies in the subtree of x iff tin[x] <= tin[y] < end[x]."""
        parent, order = self.forest
        if parent.count(-1) > 1:
            raise DecompositionError("decomposition tree is disconnected")
        return parent, order, *_intervals(parent, order)

    @cached_property
    def deltas(self) -> tuple[frozenset[int], Sequence[Sequence[int]], Sequence[Sequence[int]]]:
        """(core, adds, drops): the vertices in every bag and, per bag,
        the vertices it adds to and drops from its parent's bag in
        ``forest``; a root adds its bag less the core.  Explicit bags are
        compared with their parents' bags."""
        parent, order = self.forest
        core = self.core
        if self._paths is not None:
            return core, *self._paths.deltas(parent, order)
        bags = self.bags
        adds: list[AbstractSet[int]] = [frozenset()] * len(bags)
        drops: list[AbstractSet[int]] = [frozenset()] * len(bags)
        for x in order:
            up = bags[parent[x]] if parent[x] >= 0 else core
            adds[x], drops[x] = bags[x] - up, up - bags[x]
        return core, adds, drops

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
        it; root paths find it without the deltas
        (``_RootPaths.top_rank``).  A negative bag vertex raises
        ``DecompositionError``."""
        order = self.rooted[1]
        if self._paths is not None:
            return self._paths.top_rank(order)
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


class _BagView(Sequence):
    """The bags of a parsed text or of root paths, indexed and equal like
    their tuple; ``len`` builds no bag.  A parsed bag is read off
    ``_built``, a root-path bag built from ``outside(x)`` on its read."""

    __slots__ = ("_td",)

    def __init__(self, td: TreeDecomposition) -> None:
        self._td = td

    def __len__(self) -> int:
        paths = self._td._paths
        return len(paths.dual_parent) if paths else len(self._td.forest[0])

    def __getitem__(self, x: int) -> frozenset[int]:
        td = self._td
        x = range(len(self))[x]
        return td.core.union(td._paths.outside(x)) if td._paths else td._built[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class LayeredDecomposition:
    """A tree decomposition together with the layering realising its
    layered width."""

    decomposition: TreeDecomposition
    layering: Layering

    @cached_property
    def layered_width(self) -> int:
        """Most vertices of one bag in one layer.  The core, the vertices
        common to every bag, is counted per layer once.  Under the ceiling
        root paths prove (``_RootPaths.layer_ceiling``), each bag's rest is
        counted bag by bag up to the first that reaches it; otherwise the
        per-layer counts of the bag at hand are handed down the bag forest
        (``_walk``), changed by each bag's ``deltas`` and copied at bags
        with several children rather than undone.  A bag vertex that no
        layer holds raises ``GraphInputError``."""
        td = self.decomposition
        layer_of = self.layering.layer_of
        count = [0] * len(self.layering)
        try:
            for v in td.core:
                count[layer_of[v]] += 1
            best = max(count, default=0)
            ceiling = td._paths and td._paths.layer_ceiling(layer_of)
            if ceiling is not None:
                for f in range(len(td.bags)):
                    if best >= ceiling:
                        break
                    counts: dict[int, int] = {}
                    for v in td.outside(f):
                        i = layer_of[v]
                        counts[i] = counts.get(i, 0) + 1
                    for i, c in counts.items():
                        best = max(best, c + count[i])
                return best
            _, adds, drops = td.deltas
            for x, at in _walk(*td.forest, td._links, count):
                for v in drops[x]:
                    at[layer_of[v]] -= 1
                for v in adds[x]:
                    i = layer_of[v]
                    c = at[i] = at[i] + 1
                    if c > best:
                        best = c
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
    vertices are the ones its ``deltas`` add, the bag itself is a running
    set handed down the forest (``_walk``), changed by each bag's deltas
    and copied at bags with several children rather than undone, and each
    edge is checked in the top bag of the end read last.  Only
    vertices new in several bags are looked up bag by bag, against the
    tree edges as given.
    """
    violations: list[str] = []
    b = len(td.bags)
    # tree shape: connected and acyclic on bag indices
    if b == 0:
        return Report.of(["decomposition has no bags"])
    parent, order = td.forest
    roots = parent.count(-1)
    edges = b - roots if td._non_forest is None else len(td._non_forest)
    if edges != b - 1:
        violations.append(f"tree has {edges} edges for {b} bags")
    if roots > 1:
        violations.append("decomposition tree is disconnected")
        return Report.of(violations)
    core, adds, drops = td.deltas
    nbrs = g.adjacency
    top: dict[int, int] = {}
    spread: set[int] = set()  # vertices new in more than one bag
    missed: set[tuple[int, int]] = set()  # edges the later top bag misses
    stray = dict.fromkeys((v for v in core if not 0 <= v < g.n), 0)  # least bag holding v
    for x, rest in _walk(parent, order, td._links, set()):  # rest: the bag at x less the core
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
    adj = _tree_lists(b, td.tree_edges) if where else []
    for v in g.vertices():
        if v not in top:
            violations.append(f"vertex {v} in no bag")
        elif v in where:
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


# ---------------------------------------------------------------------------
# Genus-driven layered decomposition (tree-cotree bags).
# ---------------------------------------------------------------------------


class _RootPaths:
    """The bags of ``genus_layered_decomposition``, held as root paths.

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

    __slots__ = ("_parent", "_depth", "_corners", "_rank", "_end", "q", "core", "dual_parent")

    def __init__(self, parent: list[int], depth: list[int], corners: list[int],
                 q: frozenset[int], dual_parent: list[int]) -> None:
        self._parent = parent  # the root is its own parent
        self._depth = depth
        self._corners = corners  # face f's corners at 3f, 3f+1, 3f+2
        self.dual_parent = dual_parent  # the bag tree, -1 at its root; joined faces share an edge
        roots = [v for v, p in enumerate(parent) if p == v]
        self._rank, self._end = _intervals(parent, _preorder(parent, roots))
        self.q = q
        self.core = q  # the walks of _common_beyond_q stop at Q
        self.core = q.union(self._common_beyond_q())

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
        """``TreeDecomposition.deltas`` along the dual tree turned over at
        any face, in O(F + sum of changes).  A root adds its rest.  Faces
        joined in the dual tree share the ends of an edge, which are two
        distinct corners since the embedding has no loops.  So bag x adds
        the walk up from the corner of x that its parent bag p lacks, up
        to the core or to a vertex above a corner of p (a preorder
        interval holds that corner's rank), and drops the converse; if the
        faces share all three corners, each walk stops at once."""
        vparent, core, rank, end, corners = self._parent, self.core, self._rank, self._end, self._corners
        fc = list(zip(corners[0::3], corners[1::3], corners[2::3]))
        adds: list[Sequence[int]] = [()] * len(order)
        drops: list[Sequence[int]] = [()] * len(order)
        for x in order:
            p = parent[x]
            if p < 0:
                adds[x] = tuple(self.outside(x))
                continue
            own, other = fc[x], fc[p]
            a, b, c = own
            d, e, f = other
            ra, rb, rc = rank[d], rank[e], rank[f]
            v, walked = a if a not in other else b if b not in other else c, []
            while v not in core:
                r, s = rank[v], end[v]
                if r <= ra < s or r <= rb < s or r <= rc < s:
                    break
                walked.append(v)
                v = vparent[v]
            adds[x] = walked or ()  # the shared empty tuple, not an empty list per bag
            ra, rb, rc = rank[a], rank[b], rank[c]
            v, walked = d if d not in own else e if e not in own else f, []
            while v not in core:
                r, s = rank[v], end[v]
                if r <= ra < s or r <= rb < s or r <= rc < s:
                    break
                walked.append(v)
                v = vparent[v]
            drops[x] = walked or ()
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

    def top_rank(self, order: list[int]) -> list[int]:
        """``TreeDecomposition.top_rank`` in O(n log n + F).  A vertex v
        outside Q lies in the bags of the faces with a corner in its
        subtree, so its top bag has the least preorder rank among them;
        the ranks are pushed up the parent list, deepest vertices first.
        Q lies in every bag, so its top bag is the root bag."""
        parent, corners = self._parent, self._corners
        none = len(order)
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


def _intervals(parent: list[int], order: list[int]) -> tuple[list[int], list[int]]:
    """(rank, end) of a forest given by its parent list (a root is -1 or
    its own parent) and a preorder: each vertex's rank and the rank just
    past its subtree, so u lies in v's subtree iff rank[v] <= rank[u] < end[v]."""
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    size = [1] * len(order)
    for v in reversed(order):
        if 0 <= parent[v] != v:
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

    The bags are root paths (``_RootPaths``): the BFS parent and depth
    lists, the face corners and Q once, in O(n + F + |Q|) words for F
    faces, rather than F frozensets that each copy Q; the bag forest is
    the dual tree.  Width, layered width, ``top_rank`` and text lines are
    derived without building a bag.  A layered width above max(2g+3, |K|)
    is a fault of this construction and raises
    ``DecompositionSelfCheckError``; the check stops at the first bag
    that reaches the proved ceiling (``_RootPaths.layer_ceiling``).
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
        layering = bfs_layering(base, clique)
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
    paths = _RootPaths(parent, depth, corners, frozenset(q), tc.dual_parent)
    td = TreeDecomposition._of(paths.core, paths=paths)
    layering = Layering(tuple(frozenset(layer) for layer in layer_sets))
    ld = LayeredDecomposition(td, layering)
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
    parent, order, tin, end = td.rooted
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
    """Group components into two sides; returns the component indices on
    each side.  The callers check the sides they need.

    ``weights[i]`` is the sample count of component i, and the weights
    sum to W <= ``total``; the components come in order of least vertex,
    which breaks weight ties.  Components go greedily (descending weight)
    to the lighter side.  If every weight is at most total/2, each side
    holds at most 2/3 total: let w be the last weight placed on the final
    heavy side H; that side was the lighter one then, so H - w <= W - H,
    i.e. H <= (W + w)/2 <= 2/3 total when w <= total/3.  If w > total/3,
    only the first two weights can exceed total/3, so w is the first or
    second weight and alone on its side: H = w <= total/2.
    """
    sides: tuple[list[int], list[int]] = ([], [])
    count = [0, 0]
    # a stable sort, so equal weights keep their order
    for i in sorted(range(len(weights)), key=weights.__getitem__, reverse=True):
        s = 0 if count[0] <= count[1] else 1
        sides[s].append(i)
        count[s] += weights[i]
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
        bags.extend(bag | w for bag in sub.decomposition.bags)
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
# Text format: "bags B", the core line "core: v1 v2 ..." (the vertices in
# every bag, sorted; left out when there are none), then one line per bag
# in id order, each about the bag less the core:
#   "x: v1 v2 ..."           a root of the bag forest, its vertices listed;
#   "x < p + a1 a2 - d1 d2"  a bag whose parent is bag p, as the vertices
#                            it adds to bag p's and drops from it, either
#                            part left out when empty;
#   "x < p: v1 v2 ..."       the same bag listed, written when shorter.
# The text is the decomposition's value: the parent fields are its bag
# forest (bag 0 roots its tree, the least bag roots any other, and each
# parent is the neighbour towards the root) and the "+" and "-" parts are
# its deltas, so the parser hands the forest, core and deltas over as read
# and builds no bag.  The layered variant appends the layering block.
# Older texts list every bag on an "x: ..." line and end the decomposition
# with "tree" and the tree edges as "x y" lines (B - 1 of them in a layered
# text); they still parse, with or without a core line, as explicit bags.
# ---------------------------------------------------------------------------


def format_decomposition(td: TreeDecomposition) -> str:
    """The text of ``td``, a function of its value: root-path, parsed and
    explicit bags of equal value give equal text.  A bag tree with a cycle
    has no parent fields and raises ``DecompositionError``.  Vertices are
    written from one string table, and a part of one vertex, the common
    case, without a sort or a join."""
    if td._non_forest is not None:
        raise DecompositionError("the bag tree has a cycle and cannot be written")
    parent, order = td.forest
    b = len(order)
    core, adds, drops = td.deltas
    if td._paths is not None:  # root paths hold the vertices 0..n-1
        tok: Sequence[str] | dict[int, str] = list(map(str, range(len(td._paths._parent))))
    else:
        vs = core.union(*adds)  # a bag's vertex is in the core or added at its top bag
        tok = dict(zip(vs, map(str, vs)))

    def joined(part: Iterable[int]) -> str:
        return " ".join(map(tok.__getitem__, sorted(part)))

    lines = [f"bags {b}"] + [""] * b
    if core:
        lines[0] += "\ncore: " + joined(core)
    size = td._rest_sizes()
    for x in order:
        p, a, d = parent[x], adds[x], drops[x]
        if p < 0:
            lines[x + 1] = f"{x}: " + joined(a)
            continue
        na, nd = len(a), len(d)
        if size[x] < na + nd + (na > 0) + (nd > 0):
            # listing the bag is shorter, so the bag is small
            line = f"{x} < {p}: " + joined(td.outside(x))
        elif na == 0 and nd == 1:  # the commonest line
            (v,) = d
            line = f"{x} < {p} - {tok[v]}"
        else:
            line = f"{x} < {p}"
            if na == 1:
                (v,) = a
                line += f" + {tok[v]}"
            elif na:
                line += " + " + joined(a)
            if nd == 1:
                (v,) = d
                line += f" - {tok[v]}"
            elif nd:
                line += " - " + joined(d)
        lines[x + 1] = line
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> TreeDecomposition:
    return _read_decomposition(text.splitlines(), layered=False)[0]


class _TokenInts(dict):
    """``int(tok)`` per distinct unsigned decimal token, parsed on its
    first lookup, so equal tokens share one ``int`` object; any other
    token raises ``ValueError``.  ``lenient`` reads the others as ``int``
    does, but vertices and bag ids are never negative, so a negative
    token still raises ``ValueError``."""

    def __missing__(self, tok: str) -> int:
        if not tok.isdigit():
            raise ValueError(f"signed or non-decimal token {tok!r}")
        v = self[tok] = int(tok)
        return v

    def lenient(self, tok: str) -> int:
        try:
            return self[tok]
        except ValueError:
            v = int(tok)
            if v < 0:
                raise ValueError(f"negative token {tok!r}") from None
            return v


def _is_core_line(line: str) -> bool:
    return line.partition(":")[0].strip() == "core"


def _filled(lines: list[str], i: int) -> int:
    """The index of the first non-blank line from ``i``, or ``len(lines)``."""
    while i < len(lines) and not lines[i].strip():
        i += 1
    return i


def _read_decomposition(lines: list[str], layered: bool) -> tuple[TreeDecomposition, int, _TokenInts]:
    """The decomposition that ``lines`` start with, the index of the line
    after it and its token table (``_TokenInts``), which parses every
    vertex token once, a layer's too.  Blank lines are skipped.  Every bag
    line is split once; a line as ``format_decomposition`` writes it is
    read in place and any other goes to ``_bag_fields``, which reads it or
    raises ``GraphInputError`` naming it.  The forest, core and deltas are
    then checked and made exact by ``_resolve_deltas``; an older text's
    tree block gives explicit bags and edges instead.  In a layered text
    the decomposition ends after its bag lines or, in an older text, after
    "tree" and B - 1 edge lines; every line after it, blank or not, is a layer."""
    n = len(lines)
    i = _filled(lines, 0)
    b = _bag_count(lines[i] if i < n else "")
    ints = _TokenInts()
    core: frozenset[int] = frozenset()
    i += 1
    if b and (j := _filled(lines, i)) < n and _is_core_line(lines[j]):
        try:
            core = frozenset(map(ints.lenient, lines[j].partition(":")[2].split()))
        except ValueError as exc:
            raise GraphInputError(f"bad core line {lines[j].strip()!r}") from exc
        i = j + 1
    if n - i < b:
        raise GraphInputError("truncated decomposition")
    ids = list(map(str, range(b)))
    core_ints, ints = ints, _TokenInts(zip(ids, range(b)))  # the bag ids, and most vertices
    ints.update(core_ints)
    get, lenient = ints.__getitem__, ints.lenient
    parent = [-1] * b
    adds: list[AbstractSet[int] | tuple[int, ...]] = [()] * b
    drops: list[AbstractSet[int] | tuple[int, ...] | None] = [()] * b  # None: listed
    k = i
    try:
        for x in range(b):
            w = lines[k].split()
            while not w:
                k += 1
                w = lines[k].split()
            k += 1
            # "x < p - d", "x < p + a1 a2 - d1 d2" or "x < p: v1 v2" in place;
            # a token that is not an unsigned decimal raises ValueError
            try:
                if w[1] != "<" or w[0] != ids[x]:
                    raise ValueError
                up = w[2]
                if up[-1] == ":":
                    p = get(up[:-1])
                    adds[x], drops[x] = frozenset(map(get, w[3:])), None
                else:
                    p = get(up)
                    m = len(w)
                    if m == 5 and w[3] == "-":
                        drops[x] = (get(w[4]),)
                    elif m == 7 and w[3] == "+" and w[5] == "-":
                        adds[x], drops[x] = (get(w[4]),), (get(w[6]),)
                    elif m > 3:
                        j = 3
                        if w[3] == "+":
                            j = w.index("-") if "-" in w else m
                            adds[x] = tuple(map(get, w[4:j]))
                        if j < m:
                            if w[j] != "-":
                                raise ValueError
                            drops[x] = tuple(map(get, w[j + 1 :]))
                if p >= b or p == x:
                    raise ValueError
                parent[x] = p
            except (ValueError, IndexError):
                parent[x], adds[x], drops[x] = _bag_fields(lines[k - 1], x, b, lenient)
    except (IndexError, GraphInputError):
        if sum(1 for ln in lines[i:] if ln.strip()) < b:
            raise GraphInputError("truncated decomposition") from None
        raise
    body = lines[i:k] if k - i == b else [ln for ln in lines[i:k] if ln.strip()]
    cut = k
    if not layered:
        tail = [s for s in map(str.strip, lines[k:]) if s]
    elif (j := _filled(lines, k)) < n and lines[j].strip() == "tree":
        tail = ["tree"]
        cut = j + 1
        while len(tail) < max(b, 1) and (j := _filled(lines, cut)) < n:
            tail.append(lines[j].strip())
            cut = j + 1
        if len(tail) < max(b, 1):
            cut = n
    else:
        tail = []
    if tail and tail[0] != "tree":
        raise GraphInputError(f"expected 'tree' or the end after the bag list, got {tail[0]!r}")
    if tail and parent.count(-1) < b:
        raise GraphInputError("a text with a tree block has no parent fields")
    core, order, links = _resolve_deltas(core, parent, adds, drops, body)
    if not tail:
        td = TreeDecomposition._of(core, (parent, order), (adds, drops))
        td.__dict__["_links"] = links
        return td, cut, ints
    edges = set()
    for ln in tail[1:]:
        try:
            x, y = map(lenient, ln.split())
        except ValueError:
            x = y = -1
        if not (0 <= x < b and 0 <= y < b) or x == y:
            raise GraphInputError(f"bad tree edge {ln!r}")
        edges.add((x, y) if x < y else (y, x))
    return TreeDecomposition(map(core.union, adds), edges), cut, ints


def _bag_fields(line: str, x: int, b: int, get: Callable[[str], int]) -> tuple[int, object, object]:
    """Bag line x as (parent, adds, drops), the drops None for a listed
    bag and the parent -1 for a root, by the partition rules of the
    format: a line with a ":" lists its bag, any other is a change ("-"
    before "+"); a bad line raises ``GraphInputError`` naming it."""
    ln = line.strip()
    head, listed, vs = ln.partition(":")
    if not listed:
        head, _, dropped = ln.partition("-")
        head, _, vs = head.partition("+")
    bag_id, child, up = head.partition("<")
    has_parent = bool(child) or not listed
    p = -1
    try:
        given = int(bag_id)
        if listed:
            a, d = frozenset(map(get, vs.split())), None
        else:
            a, d = tuple(map(get, vs.split())), tuple(map(get, dropped.split()))
        if has_parent:
            p = int(up)
    except ValueError as exc:
        what = "misplaced core" if head.strip() == "core" else "bad bag"
        raise GraphInputError(f"{what} line {ln!r}") from exc
    if given != x:
        raise GraphInputError(f"bag ids must be consecutive, got {bag_id.strip()!r}")
    if has_parent and not (0 <= p < b and p != x):
        raise GraphInputError(f"bad parent in bag line {ln!r}")
    return p, a, d


def _resolve_deltas(
    core: frozenset[int],
    parent: list[int],
    adds: list,
    drops: list,
    lines: list[str],
) -> tuple[frozenset[int], list[int], tuple[list[int], list[int]]]:
    """The core, the preorder (``_bag_forest``'s) and the child links of
    parsed bag lines, checked along the preorder: each line's change is
    checked against its parent's bag, the running set ``_walk`` hands
    down, copied at bags with several children rather than undone.  A
    line that adds a vertex its parent's bag holds, drops one it lacks,
    names one twice or repeats a core vertex, parents that close a cycle,
    and a root that is not the least bag of its component raise
    ``GraphInputError``.  A listed bag (``drops`` None) becomes its change
    from its parent in place, and any vertex in every bag moves into the
    core, so the value alone fixes the fields."""
    b = len(parent)

    def line(x: int) -> str:
        return lines[x].strip()

    chain = itertools.chain.from_iterable
    if core and not (core.isdisjoint(chain(adds)) and core.isdisjoint(chain(filter(None, drops)))):
        x = next(x for x in range(b) if not core.isdisjoint((*adds[x], *(drops[x] or ()))))
        raise GraphInputError(f"bag line {line(x)!r} repeats a core vertex")
    links = _child_links(parent)
    roots = [x for x, p in enumerate(parent) if p < 0]
    order = _preorder(parent, roots[::-1], links)

    def least_is_root(i: int, j: int) -> None:  # the tree at order[i:j]
        if (least := min(order[i:j])) != order[i]:
            raise GraphInputError(f"bag {order[i]} is a root, but bag {least} is in its tree")

    start = 0
    for i, (x, bag) in enumerate(_walk(parent, order, links, set())):  # bag: x's less the core
        p = parent[x]
        if p < 0 and i:
            least_is_root(start, i)
            start = i
        a, d = adds[x], drops[x]
        if d is None:
            adds[x], drops[x] = a, d = a.difference(bag), bag.difference(a)
            bag.difference_update(d)
            bag.update(a)
        else:
            k = len(bag)
            if d:
                bag.difference_update(d)
                if len(bag) + len(d) != k:
                    raise GraphInputError(f"bag line {line(x)!r} drops a vertex bag {p} lacks")
                k -= len(d)
            if a:
                bag.update(a)
                if len(bag) != k + len(a) or d and not bag.isdisjoint(d):
                    raise GraphInputError(f"bag line {line(x)!r} adds a vertex bag {p} holds")
    if order:
        least_is_root(start, len(order))
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
    return core, order, links


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
    from .graphs import _layering_of_lines

    lines = text.splitlines()
    td, cut, ints = _read_decomposition(lines, layered=True)
    return LayeredDecomposition(td, _layering_of_lines(lines[cut:], ints.__getitem__))
