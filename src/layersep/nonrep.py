"""Nonrepetitive colourings from the labelling recursion.

A colouring is nonrepetitive if no path reads the same colour sequence
twice in a row.  The pipeline colours each vertex by (layer-pattern
symbol, depth, label): the depth/label pair comes from the separation
recursion, and the layer-pattern symbol is a 4-symbol colouring of the
layer indices under which any repetitively coloured lazy walk must visit
identical index sequences.  That word comes from a budgeted depth-first
search whose per-prefix check grows the two halves of a lazy walk in
lockstep as colour-equal index pairs; it is checked for walks of length
<= 10 only, and ``verify_layer_pattern`` enumerates walks exhaustively as
the independent check.  The brute-force path verifier is the authority
for every produced colouring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .graphs import Graph, GraphInputError, Layering, Report
from .layouts import ComputeLabels


@dataclass(frozen=True)
class Colouring:
    """Total vertex colouring with dense integer colour ids."""

    colour: dict[int, int]

    @cached_property
    def palette_size(self) -> int:
        return len(set(self.colour.values()))

    @staticmethod
    def from_tuples(tuples: dict[int, tuple]) -> "Colouring":
        """Flatten structured colour tuples to dense ids, ordered
        lexicographically for stable palette accounting."""
        distinct = sorted(set(tuples.values()))
        ids = {t: i for i, t in enumerate(distinct)}
        return Colouring({v: ids[t] for v, t in tuples.items()})


@dataclass(frozen=True)
class LayerPatternColouring:
    """Symbol per layer index such that repetitively coloured lazy walks
    have matching index halves.

    ``search_nodes`` and ``fell_back`` describe how
    ``layer_pattern_colouring`` found the word; equality and hashing
    read ``seq`` only.
    """

    seq: tuple[int, ...]
    search_nodes: int = field(default=0, compare=False)
    fell_back: bool = field(default=False, compare=False)

    @property
    def symbol_count(self) -> int:
        return len(set(self.seq))


def _thue_morse(n: int) -> int:
    return bin(n).count("1") & 1


def _ternary_squarefree(n: int) -> int:
    """Square-free word over {0,1,2} from Thue-Morse first differences."""
    return _thue_morse(n + 1) - _thue_morse(n) + 1


def _suffix_squarefree(seq: Sequence[int]) -> bool:
    n = len(seq)
    return all(
        seq[n - 2 * q : n - q] != seq[n - q :] for q in range(1, n // 2 + 1)
    )


_SEARCH_WALK_CAP = 10


def _last_position_walks_ok(seq: Sequence[int]) -> bool:
    """True when no lazy walk of even length <= the cap, inside the last
    cap positions, visits the last position and reads the same colours
    on two different index halves.

    The two halves of a walk are grown in lockstep as index pairs
    (a_i, b_i) with seq[a_i] == seq[b_i], each index moving by -1, 0 or
    +1 per step.  A state is (a_i, b_i, b_0, halves differ, last
    position visited).  After k steps a state closes a counterexample of
    length 2k when a_i is within one of b_0 (the junction of the two
    halves), the halves differ and the last position was visited.  One
    pass of cap/2 steps thus covers every even length up to the cap over
    at most 4 W^3 states for a window of W positions, where enumerating
    the walks themselves costs up to W 3^(cap-1) tuples.  A state is
    dropped once a_i can no longer get back within one of b_0, or the
    walk can no longer reach the last position, in the steps left.
    """
    p = len(seq) - 1
    lo = max(0, p - _SEARCH_WALK_CAP + 1)
    half = _SEARCH_WALK_CAP // 2
    step = {
        x: [y for y in (x - 1, x, x + 1) if lo <= y <= p] for x in range(lo, p + 1)
    }
    states = {
        (a, b, b, a != b, p in (a, b))
        for a in step
        for b in step
        if seq[a] == seq[b]
    }
    for k in range(1, half + 1):
        if any(
            differ and seen and abs(a - b0) <= 1
            for a, _, b0, differ, seen in states
        ):
            return False
        left = half - k  # steps still allowed to each half
        states = {
            (a2, b2, b0, differ or a2 != b2, seen or p in (a2, b2))
            for a, b, b0, differ, seen in states
            for a2 in step[a]
            if abs(a2 - b0) <= left
            for b2 in step[b]
            if seq[a2] == seq[b2] and (seen or p - max(a2, b2) < left)
        }
    return True


def _search_four_symbol(t: int, node_budget: int) -> tuple[Optional[list[int]], int]:
    """Deterministic depth-first search for a 4-symbol word of length t
    that is square-free (kills all straight-walk counterexamples of any
    length) and passes the windowed lazy-walk check on every prefix.
    Returns the word (None when the budget runs out) and the number of
    nodes visited."""
    stack: list[list[int]] = [[0]]
    nodes = 0
    while stack and nodes < node_budget:
        seq = stack.pop()
        nodes += 1
        if not _suffix_squarefree(seq) or not _last_position_walks_ok(seq):
            continue
        if len(seq) == t:
            return seq, nodes
        for s in range(3, -1, -1):
            stack.append(seq + [s])
    return None, nodes


@lru_cache(maxsize=None)
def layer_pattern_colouring(t: int) -> LayerPatternColouring:
    """Layer colouring with the matching-walk property, 4 symbols when
    the search succeeds.

    Two constraints guide the search: the word must be square-free (a
    square of period q yields a straight length-2q walk whose colour
    halves match on distinct indices), and every prefix must pass the
    windowed lazy-walk check of ``_last_position_walks_ok`` (walks of
    length <= 10 through the new last position).  The search visits
    about 2.4 t nodes (91 at t = 40) and each check is one small
    lockstep pass rather than an enumeration of walks.  If the
    budgeted search fails, fall back to the 6-symbol word (parity,
    ternary square-free at index i//2), which passes the same battery;
    palette bounds scale accordingly.  The result records the nodes
    searched and whether it fell back.  verify_layer_pattern remains the
    final authority.
    """
    if t < 1:
        raise GraphInputError("need at least one layer")
    found, nodes = _search_four_symbol(t, node_budget=400 * t)
    if found is not None:
        return LayerPatternColouring(tuple(found), search_nodes=nodes)
    return LayerPatternColouring(
        tuple(3 * (i % 2) + _ternary_squarefree(i // 2) for i in range(t)),
        search_nodes=nodes,
        fell_back=True,
    )


def verify_layer_pattern(
    lp: LayerPatternColouring, max_walk: int
) -> Optional[tuple[int, ...]]:
    """Exhaustive lazy-walk check; returns a counterexample walk whose
    colour halves match but index halves differ, or None."""
    if max_walk % 2:
        raise GraphInputError("max_walk must be even")
    seq = lp.seq
    t = len(seq)
    for length in range(2, max_walk + 1, 2):
        k = length // 2
        stack: list[tuple[int, tuple[int, ...]]] = [
            (s, (s,)) for s in range(t - 1, -1, -1)
        ]
        while stack:
            cur, walk = stack.pop()
            if len(walk) == length:
                c = [seq[i] for i in walk]
                if c[:k] == c[k:] and walk[:k] != walk[k:]:
                    return walk
                continue
            for d in (-1, 0, 1):
                nxt = cur + d
                if 0 <= nxt < t:
                    stack.append((nxt, walk + (nxt,)))
    return None


def nonrep_from_compute(
    g: Graph,
    layering: Layering,
    labels: ComputeLabels,
    lp: Optional[LayerPatternColouring] = None,
) -> Colouring:
    """Colour each vertex by (layer-pattern symbol, depth, label)."""
    if lp is None:
        lp = layer_pattern_colouring(len(layering))
    if len(lp.seq) < len(layering):
        raise GraphInputError("layer-pattern colouring too short")
    layer_of = layering.layer_of
    tuples = {}
    for v in g.vertices():
        if v not in labels.depth:
            raise GraphInputError(f"vertex {v} has no recursion label")
        tuples[v] = (lp.seq[layer_of[v]], labels.depth[v], labels.label[v])
    return Colouring.from_tuples(tuples)


def nonrep_bound(n: int, ell1: int, ell2: int, symbols: int = 4) -> float:
    """Palette cap for the recursion colouring; scales with the symbol
    count of the layer-pattern sequence."""
    return symbols * ell1 + symbols * ell2 * (
        1 + math.log(max(n, 2)) / math.log(1.5)
    )


def shadow_nonrep_compose(
    g: Graph,
    layering: Layering,
    layer_colourings: Sequence[Colouring],
    lp: Optional[LayerPatternColouring] = None,
) -> Colouring:
    """Product colouring for a shadow-complete layering: pair the layer
    pattern symbol with the in-layer colour.

    ``layer_colourings[i]`` must colour exactly the vertices of layer i.
    With c in-layer colours the palette is at most 4c.
    """
    if len(layer_colourings) != len(layering):
        raise GraphInputError("one colouring per layer required")
    if lp is None:
        lp = layer_pattern_colouring(len(layering))
    tuples: dict[int, tuple] = {}
    for i, layer in enumerate(layering.layers):
        lc = layer_colourings[i]
        if set(lc.colour) != set(layer):
            raise GraphInputError(
                f"layer {i} colouring does not cover exactly its vertices"
            )
        for v in layer:
            tuples[v] = (lp.seq[i], lc.colour[v])
    if len(tuples) != g.n:
        raise GraphInputError("layering does not cover the vertex set")
    return Colouring.from_tuples(tuples)


def verify_proper(g: Graph, c: Colouring) -> Report:
    """Check that exactly the vertices of G are coloured and that no edge
    is monochromatic."""
    violations = [
        f"edge ({u},{v}) monochromatic in colour {c.colour[u]}"
        for u, v in sorted(g.edges)
        if c.colour.get(u) == c.colour.get(v)
    ]
    for v in g.vertices():
        if v not in c.colour:
            violations.append(f"vertex {v} uncoloured")
    for v in c.colour:
        if not 0 <= v < g.n:
            violations.append(f"vertex {v} coloured {c.colour[v]} is not in G")
    return Report.of(violations)


def verify_nonrepetitive(
    g: Graph, c: Colouring, max_path: int
) -> Optional[tuple[int, ...]]:
    """Search for a simple path of up to max_path vertices whose colour
    sequence is a square; returns the first one found, or None.

    For each half-length k the first k vertices are enumerated by DFS;
    the remaining k vertices have their colours forced by the first
    half, which prunes the branching to the few neighbours of the right
    colour.  Half-lengths, start vertices and neighbours are scanned in
    ascending order, so the counterexample (if any) is deterministic.
    """
    colour = c.colour
    for v in g.vertices():
        if v not in colour:
            raise GraphInputError(f"vertex {v} uncoloured")
    adj = g.adjacency

    def dfs(path: list[int], on_path: set[int], k: int) -> Optional[tuple[int, ...]]:
        j = len(path)
        if j == 2 * k:
            return tuple(path)
        # past the midpoint the colour is dictated by the first half
        want = colour[path[j - k]] if j >= k else None
        for w in adj[path[-1]]:
            if w in on_path or (want is not None and colour[w] != want):
                continue
            path.append(w)
            on_path.add(w)
            hit = dfs(path, on_path, k)
            if hit:
                return hit
            on_path.discard(w)
            path.pop()
        return None

    for k in range(1, max_path // 2 + 1):
        for s in g.vertices():
            hit = dfs([s], {s}, k)
            if hit:
                return hit
    return None


def verify_nonrepetitive_tuples(
    g: Graph, c: Colouring, max_path: int
) -> Optional[tuple[int, ...]]:
    """Independent cross-check for tiny graphs: enumerate all ordered
    vertex tuples of even length, filter the ones that are paths, and
    test for colour squares.  Exponential; intended for n <= 10."""
    import itertools

    if g.n > 10:
        raise GraphInputError("tuple oracle limited to n <= 10")
    colour = c.colour
    for length in range(2, max_path + 1, 2):
        k = length // 2
        for tup in itertools.permutations(g.vertices(), length):
            if not all(g.has_edge(tup[i], tup[i + 1]) for i in range(length - 1)):
                continue
            if all(colour[tup[i]] == colour[tup[k + i]] for i in range(k)):
                return tup
    return None


def default_max_path(n: int) -> int:
    """Exhaustive for small graphs, short repetitions only for large."""
    return n if n <= 40 else 10


# ---------------------------------------------------------------------------
# Text format: header "palette p bound b", then n lines "v colour_id".
# ---------------------------------------------------------------------------


def format_colouring(c: Colouring, bound: Optional[float] = None) -> str:
    head = f"palette {c.palette_size}"
    if bound is not None:
        head += f" bound {bound:.3f}"
    lines = [head]
    lines.extend(f"{v} {c.colour[v]}" for v in sorted(c.colour))
    return "\n".join(lines) + "\n"


def parse_colouring(text: str) -> Colouring:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("palette"):
        raise GraphInputError("colouring must start with a palette header")
    colour: dict[int, int] = {}
    for ln in lines[1:]:
        try:
            v, cid = map(int, ln.split())
        except ValueError as exc:
            raise GraphInputError(f"bad colour line {ln!r}") from exc
        if v in colour:
            raise GraphInputError(f"vertex {v} coloured twice")
        colour[v] = cid
    return Colouring(colour)
