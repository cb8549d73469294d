"""Core graph, layering and separation types shared by every pipeline.

Vertices are dense integers ``0..n-1``.  All types are immutable values;
operations are pure functions.

``parse_graph`` reads the edge block of a graph text with one
``map(int, ...)`` and checks count, range, loops and repeated edges in
bulk.  Edge lines already ascending, as ``format_graph`` writes them,
become the graph's ``sorted_edges`` as they are; lines in another order
or written ``v u`` are normalised.  A text that fails a check is read
again line by line, only to name its first bad line.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import eq, lt
from typing import Callable, Iterable, MutableSequence, Optional, Sequence


class GraphInputError(ValueError):
    """Raised for malformed graphs, layerings or text-format inputs."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1`` (no loops)."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphInputError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(norm))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in ascending order: the one edge order every
        consumer reads, so equal graphs give equal outputs."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending (one pass over the
        sorted edges lists them in order)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.sorted_edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_clique(self, vs: Iterable[int]) -> bool:
        vs = list(vs)
        return all(
            self.has_edge(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    def subgraph_edges(self, vs: Iterable[int]) -> frozenset[tuple[int, int]]:
        vset = set(vs)
        return frozenset((u, v) for u, v in self.edges if u in vset and v in vset)

    def induced(self, vs: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``vs`` with dense relabelling.

        Returns the new graph and the old->new vertex map.  Reads the
        adjacency of ``vs`` only, so splitting G into c parts costs
        O(n + m) in all, not O(c m).
        """
        order = sorted(set(vs))
        to_new = {v: i for i, v in enumerate(order)}
        adj = self.adjacency
        edges = [
            (i, to_new[w])
            for i, v in enumerate(order)
            if 0 <= v < self.n
            for w in adj[v]
            if v < w and w in to_new
        ]
        return Graph.from_edges(len(order), edges), to_new

    def components(self) -> list[frozenset[int]]:
        """Connected components, in increasing order of their least
        vertex."""
        return _components_within(self, frozenset(self.vertices()))


def _components_within(g: Graph, allowed: frozenset[int]) -> list[frozenset[int]]:
    """Components of G[allowed], in increasing order of their least
    vertex."""
    mark = bytearray(g.n)
    for v in allowed:
        mark[v] = 1
    return [frozenset(c) for c in _stamped_components(g.adjacency, mark, 1, 2, sorted(allowed))]


def _stamped_components(
    adjacency: Sequence[Sequence[int]],
    mark: MutableSequence[int],
    cur: int,
    done: int,
    seeds: Iterable[int],
) -> list[list[int]]:
    """Components of the vertices v with ``mark[v] == cur``, found by a
    search from each seed in turn that still carries ``cur``, so they come
    in the order of their first seed; each vertex reached is re-marked
    ``done``.  Lists a component in the order the search reaches it."""
    comps = []
    for s in seeds:
        if mark[s] != cur:
            continue
        mark[s] = done
        comp = [s]
        for v in comp:  # the list grows as the search reaches vertices
            for w in adjacency[v]:
                if mark[w] == cur:
                    mark[w] = done
                    comp.append(w)
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class Layering:
    """Ordered partition of the vertex set; edges join the same or
    consecutive layers."""

    layers: tuple[frozenset[int], ...]

    @staticmethod
    def from_sets(layers: Iterable[Iterable[int]]) -> "Layering":
        tup = tuple(frozenset(layer) for layer in layers)
        while tup and not tup[-1]:
            tup = tup[:-1]
        return Layering(tup)

    @cached_property
    def layer_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, layer in enumerate(self.layers):
            for v in layer:
                if v in out:
                    raise GraphInputError(f"vertex {v} in two layers")
                out[v] = i
        return out

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Separation:
    """Pair of vertex sets covering V(G) with no edge between the strict
    sides."""

    part1: frozenset[int]
    part2: frozenset[int]

    @property
    def intersection(self) -> frozenset[int]:
        return self.part1 & self.part2

    @property
    def order(self) -> int:
        return len(self.intersection)


@dataclass(frozen=True)
class Report:
    """Verdict of a verifier: ``ok`` plus human-readable violations."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def of(violations: Iterable[str]) -> "Report":
        return Report(tuple(violations))


def bfs_layering(g: Graph, roots: Iterable[int]) -> Layering:
    """BFS layering from a root set; layer ``i`` holds the vertices at
    distance ``i`` from the roots.  Raises if some vertex is unreachable.
    """
    roots = sorted(set(roots))
    if not roots:
        raise GraphInputError("root set must be non-empty")
    for r in roots:
        if not 0 <= r < g.n:
            raise GraphInputError(f"root {r} out of range")
    depth: dict[int, int] = {r: 0 for r in roots}
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    if len(depth) != g.n:
        missing = min(v for v in g.vertices() if v not in depth)
        raise GraphInputError(f"vertex {missing} unreachable from roots")
    layers: list[set[int]] = [set() for _ in range(max(depth.values()) + 1)]
    for v, d in depth.items():
        layers[d].add(v)
    return Layering.from_sets(layers)


def validate_layering(g: Graph, layering: Layering) -> Report:
    """Check that the layering partitions V(G) and that every edge joins
    the same or consecutive layers."""
    violations: list[str] = []
    seen: dict[int, int] = {}
    for i, layer in enumerate(layering.layers):
        for v in layer:
            if v in seen:
                violations.append(f"vertex {v} in layers {seen[v]} and {i}")
            seen[v] = i
            if not 0 <= v < g.n:
                violations.append(f"vertex {v} out of range")
    for v in g.vertices():
        if v not in seen:
            violations.append(f"uncovered vertex {v}")
    for u, v in g.sorted_edges:
        if u in seen and v in seen and abs(seen[u] - seen[v]) > 1:
            violations.append(
                f"edge ({u},{v}) spans layers {seen[u]} and {seen[v]}"
            )
    return Report.of(violations)


def validate_separation(
    g: Graph,
    s: Separation,
    sample: Iterable[int],
    balance: Fraction = Fraction(2, 3),
    layering: Optional[Layering] = None,
) -> Report:
    """Check the separation property and sample balance.

    Each strict side may hold at most ``balance * |sample|`` sample
    vertices.  When a layering is given, also reports every separator
    vertex the layering misses; ``separator_layer_widths`` gives the
    per-layer sizes.
    """
    violations: list[str] = []
    sample = set(sample)
    if not (s.part1 | s.part2) >= set(g.vertices()):
        missing = min(set(g.vertices()) - (s.part1 | s.part2))
        violations.append(f"vertex {missing} in neither part")
    side1 = s.part1 - s.part2
    side2 = s.part2 - s.part1
    for u, v in g.sorted_edges:
        if (u in side1 and v in side2) or (u in side2 and v in side1):
            violations.append(f"crossing edge ({u},{v})")
    cap = balance * len(sample)
    for name, side in (("part1", side1), ("part2", side2)):
        k = len(side & sample)
        if k > cap:
            violations.append(
                f"strict side of {name} holds {k} sample vertices > {cap}"
            )
    if layering is not None:
        for v in s.intersection:
            if v not in layering.layer_of:
                violations.append(f"separator vertex {v} missing from layering")
    return Report.of(violations)


def separator_layer_widths(s: Separation, layering: Layering) -> dict[int, int]:
    """Number of separator vertices in each layer."""
    widths: dict[int, int] = {}
    for v in s.intersection:
        i = layering.layer_of[v]
        widths[i] = widths.get(i, 0) + 1
    return widths


# ---------------------------------------------------------------------------
# Text formats.
# Graph: first line "n m", then m lines "u v".
# Layering: one line per layer, space-separated vertex ids.
# ---------------------------------------------------------------------------


def _ints(ln: str, what: str, count: Optional[int] = None) -> list[int]:
    """The integers on a text line, exactly ``count`` of them if given;
    otherwise a ``GraphInputError`` naming the line as a bad ``what``."""
    try:
        ints = list(map(int, ln.split()))
    except ValueError as exc:
        raise GraphInputError(f"bad {what} {ln!r}") from exc
    if count is not None and len(ints) != count:
        raise GraphInputError(f"bad {what} {ln!r}")
    return ints


def parse_graph(text: str) -> Graph:
    """Read the header ``n m`` and m edge lines ``u v``; blank lines are
    skipped.  The edge block is read with one ``map(int, ...)`` and
    checked in bulk: count, range, loops and repeats.  Lines already
    ascending with ``u < v``, as ``format_graph`` writes them, are handed
    over as the graph's ``sorted_edges``; other orders are normalised.
    Any text that is not a simple graph with exactly m distinct edges
    falls back to ``_parse_graph_lines``, which raises
    ``GraphInputError`` naming the first bad line."""
    tokens = text.split()
    try:
        n, m = int(tokens[0]), int(tokens[1])
        flat = list(map(int, tokens))
    except (IndexError, ValueError):
        return _parse_graph_lines(text)
    # every line blank or two tokens, and 2m + 2 of them: the header and
    # m edge lines
    if (
        len(flat) != 2 * m + 2
        or not set(map(len, map(str.split, text.splitlines()))) <= {0, 2}
        or n < 0
    ):
        return _parse_graph_lines(text)
    ends = flat[2:]
    us, vs = ends[0::2], ends[1::2]
    if all(map(lt, us, vs)):  # no loop, no reversed line
        edges = list(zip(us, vs))
        ascending = all(map(lt, edges, islice(edges, 1, None)))
    else:
        edges = list(zip(map(min, us, vs), map(max, us, vs)))
        ascending = False
    edge_set = frozenset(edges)
    if (
        len(edge_set) != m
        or (m and (min(ends) < 0 or max(ends) >= n))
        or (not ascending and any(map(eq, us, vs)))
    ):
        return _parse_graph_lines(text)
    g = Graph(n, edge_set)
    if ascending:
        g.__dict__["sorted_edges"] = tuple(edges)
    return g


def _parse_graph_lines(text: str) -> Graph:
    """``parse_graph`` line by line: raises ``GraphInputError`` naming
    the first bad line, a repeated edge included."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphInputError("empty graph file")
    n, m = _ints(lines[0], "header line", 2)
    if len(lines) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = [tuple(_ints(ln, "edge line", 2)) for ln in lines[1:]]
    g = Graph.from_edges(n, edges)
    if g.m != m:
        seen: set[tuple[int, int]] = set()
        for ln, (u, v) in zip(lines[1:], edges):
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphInputError(f"repeated edge in edge line {ln!r}")
            seen.add(key)
    return g


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def parse_layering(text: str) -> Layering:
    """Every line is a layer, a blank one an empty layer, so
    ``parse_layering(format_layering(L)) == L`` for every layering.
    A vertex listed in two layers raises ``GraphInputError``."""
    return _layering_of_lines(text.splitlines())


def _layering_of_lines(lines: list[str], get: Callable[[str], int] = int) -> Layering:
    """``parse_layering`` of the text of these lines, each token read by
    ``get``; a line with a token ``get`` refuses is read with ``int``."""
    layers = []
    for ln in lines:
        try:
            layers.append(frozenset(map(get, ln.split())))
        except ValueError:
            layers.append(frozenset(_ints(ln.strip(), "layer line")))
    if sum(map(len, layers)) != len(frozenset().union(*layers)):
        first: dict[int, int] = {}
        for i, layer in enumerate(layers):
            for v in sorted(layer):
                j = first.setdefault(v, i)
                if j != i:
                    raise GraphInputError(f"vertex {v} in layers {j} and {i}")
    return Layering(tuple(layers))


def format_layering(layering: Layering) -> str:
    return "".join(
        " ".join(map(str, sorted(layer))) + "\n" for layer in layering.layers
    )
