"""Nonrepetitive colourings from the labelling recursion.

A colouring is nonrepetitive if no path reads the same colour sequence
twice in a row.  The pipeline colours each vertex by (layer-pattern
symbol, depth, label): the depth/label pair comes from the separation
recursion, and the layer-pattern symbol is a 4-symbol colouring of the
layer indices under which any repetitively coloured lazy walk must visit
identical index sequences.  That word comes from a budgeted depth-first
search; its per-prefix check, ``_matching_walk``, grows the two halves of
a lazy walk in lockstep as colour-equal index pairs, over walks of length
<= 10 through the newest position.  ``verify_layer_pattern`` runs the
same pair search over the whole word, up to any even length.

``verify_nonrepetitive`` is the authority for every produced colouring,
and it too grows the two halves of a candidate square in lockstep as
colour-equal pairs, so that each half prunes the other.  It anchors the
search at the first vertex of the second half, inside a BFS ball around
that vertex that bounds how far the first half may stray.  It builds
flat tables once per call (colours by vertex, (degree, id) ranks, each
anchor's end list), finds the squares of half-length <= 2 by lookups
over those end lists with no ball, and runs the longer search on level
and mark lists that every anchor reuses.  Exhaustive enumerations in the
tests are the oracles of both verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .graphs import Graph, GraphInputError, Layering, Report, _ints
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


def _matching_walk(
    seq: Sequence[int], half: int, lo: int = 0, through_last: bool = False
) -> Optional[tuple[int, ...]]:
    """Shortest lazy walk of even length <= 2 half over positions lo..end
    (through the last position when asked) whose colour halves match on
    different index halves, or None.

    The two halves of a walk are grown in lockstep as index pairs
    (a_i, b_i) with seq[a_i] == seq[b_i], each index moving by -1, 0 or
    +1 per step.  A state is (a_i, b_i, b_0, halves differ, last
    position visited).  A state closes a counterexample of length
    2i + 2 when a_i is within one of b_0 (the junction of the two
    halves), the halves differ and the last position was visited.  One
    pass of half - 1 steps thus covers every even length up to 2 half
    over at most 4 W^3 states for W positions, where enumerating the
    walks themselves costs up to W 3^(2 half - 1) tuples.  A state is
    dropped once a_i can no longer get back within one of b_0, or the
    walk can no longer reach the last position, in the steps left.
    Each layer maps a state to one predecessor, so the counterexample
    is read back from the layers.
    """
    p = len(seq) - 1
    step = {
        x: [y for y in (x - 1, x, x + 1) if lo <= y <= p] for x in range(lo, p + 1)
    }
    layer: dict[tuple, Optional[tuple]] = {
        (a, b, b, a != b, not through_last or p in (a, b)): None
        for a in step
        for b in step
        if seq[a] == seq[b]
    }
    layers = [layer]
    for i in range(half):
        for state in layer:
            a, _, b0, differ, seen = state
            if differ and seen and abs(a - b0) <= 1:
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
            (a2, b2, b0, differ or a2 != b2, seen or p in (a2, b2)): state
            for state in layer
            for a, b, b0, differ, seen in (state,)
            for a2 in step[a]
            if abs(a2 - b0) <= left
            for b2 in step[b]
            if seq[a2] == seq[b2] and (seen or p - max(a2, b2) < left)
        }
        layers.append(layer)
    return None


def _last_position_walks_ok(seq: Sequence[int]) -> bool:
    """True when no lazy walk of even length <= the cap, inside the last
    cap positions, visits the last position and reads the same colours
    on two different index halves (see ``_matching_walk``)."""
    lo = max(0, len(seq) - _SEARCH_WALK_CAP)
    return _matching_walk(seq, _SEARCH_WALK_CAP // 2, lo, through_last=True) is None


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
    """Lazy-walk check over the whole word: returns a shortest walk of
    even length <= max_walk whose colour halves match but index halves
    differ, or None.  The two halves grow in lockstep as colour-equal
    index pairs (``_matching_walk``) instead of being enumerated."""
    if max_walk % 2:
        raise GraphInputError("max_walk must be even")
    return _matching_walk(lp.seq, max_walk // 2)


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
    is monochromatic; an edge with an uncoloured end has no colour."""
    colour = c.colour
    violations = [
        f"edge ({u},{v}) monochromatic in colour {colour[u]}"
        for u, v in g.sorted_edges
        if u in colour and colour[u] == colour.get(v)
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
    sequence is a square; returns the least one, or None.

    A square of half-length k is a path x_1..x_k y_1..y_k with
    c(x_i) = c(y_i); its middle edge is x_k y_1.  The search is anchored
    at y_1 and grows the pairs (x_i, y_i) in lockstep: x_{i+1} is a
    neighbour of x_i, and y_{i+1} is a neighbour of y_i of colour
    c(x_{i+1}), found by scanning N(y_i).  So both halves are pruned by
    colour.  x_k lies in an end set of neighbours of y_1 and the subpath
    x_i..x_k avoids y_1, so a BFS from the end set in G - y_1 bounds
    where x_i may lie, with a radius that shrinks by one per step; x_1
    ranges over the vertices of colour c(y_1) in the ball.  Every pair
    path whose last x is an end is a square.

    The reverse of a square is a square with the same middle edge,
    traversed the other way, so each square is searched in one
    orientation only: the end set holds the neighbours of y_1 below it
    in (degree, id) order, and the reverse of every hit is added.
    Anchoring at the higher end keeps the search out of the large balls
    around hubs, which each neighbour of a hub would otherwise search
    again.

    The search reads flat tables built once per call: the colours as a
    list indexed by vertex, each vertex's rank in (degree, id) order,
    and each anchor's end list.  A first pass finds the squares of
    half-length <= 2 (an improper edge, a planted P4) by lookups over
    each anchor's ends, with no ball: x_2 is an end, x_1 a neighbour of
    it and y_2 a neighbour of y_1.  If it finds none, one search to
    half-length max_path // 2 finds the squares of every longer
    half-length.  Its balls live in one level list that all anchors
    share: an entry is the anchor's base stamp plus the BFS distance,
    so an entry below the base is outside the ball and nothing is
    cleared between anchors.

    The result is the lexicographically least square of the least
    half-length, which is what a depth-first search over start vertices
    and sorted neighbours returns first.
    """
    colour = c.colour
    for v in g.vertices():
        if v not in colour:
            raise GraphInputError(f"vertex {v} uncoloured")
    cap = max_path // 2
    if cap < 1:
        return None
    col = [colour[v] for v in g.vertices()]
    adj = g.adjacency
    rank = [0] * g.n
    for r, v in enumerate(sorted(g.vertices(), key=g.degree)):  # stable: ids break ties
        rank[v] = r
    ends_of = [[w for w in adj[y] if rank[w] < rank[y]] for y in g.vertices()]

    # half-length 1: an end x_1 of y_1 with c(x_1) = c(y_1)
    squares = [
        min((x1, y1), (y1, x1))
        for y1, ends in enumerate(ends_of)
        for x1 in ends
        if col[x1] == col[y1]
    ]
    if squares or cap == 1:
        return min(squares, default=None)
    # half-length 2: an end x_2 of y_1, x_1 in N(x_2), y_2 in N(y_1);
    # y_2 = x_1 would make x_1 x_2 an edge of one colour, found above
    for y1, ends in enumerate(ends_of):
        want = col[y1]
        for x2 in ends:
            c2 = col[x2]
            for x1 in adj[x2]:
                if col[x1] == want and x1 != y1:
                    for y2 in adj[y1]:
                        if col[y2] == c2 and y2 != x2:
                            p = (x1, x2, y1, y2)
                            squares.append(min(p, p[::-1]))
    if squares or cap == 2:
        return min(squares, default=None)

    # level[v] = base + the distance from v to y_1's ends in G - y_1, for
    # v in the current ball; x_i needs a distance <= cap - i + 1, and
    # x_cap must be an end (distance 1)
    level = [-1] * g.n
    used = [False] * g.n
    xs: list[int] = []
    ys: list[int] = []
    hits: list[tuple[int, tuple[int, ...]]] = []
    base = end = 0

    def close(x: int, y: int) -> None:
        """Record the pair path xs/ys, whose last but one pair is (x, y),
        and its squares one pair longer: the last x must be an end."""
        if level[x] == end:
            hits.append((cap - 1, (*xs, *ys)))
        for x2 in adj[x]:
            if level[x2] == end and not used[x2]:
                c2 = col[x2]
                for y2 in adj[y]:
                    if col[y2] == c2 and not used[y2] and y2 != x2:
                        hits.append((cap, (*xs, x2, *ys, y2)))

    def grow(x: int, y: int, i: int):
        """Record and extend the pair path xs/ys, whose i-th pair is
        (x, y), i < cap - 1.  Each longer pair below the last but one is
        yielded for the caller to grow, and resumed once it is grown, so
        the search runs from an explicit stack, not one call per pair."""
        if level[x] == end:
            hits.append((i, (*xs, *ys)))
        top = base + cap - i
        for x2 in adj[x]:
            if used[x2] or not base < level[x2] <= top:
                continue
            c2 = col[x2]
            used[x2] = True
            xs.append(x2)
            for y2 in adj[y]:
                if col[y2] == c2 and not used[y2]:
                    used[y2] = True
                    ys.append(y2)
                    if i + 1 == cap - 1:
                        close(x2, y2)
                    else:
                        yield x2, y2, i + 1
                    ys.pop()
                    used[y2] = False
            xs.pop()
            used[x2] = False

    for y1, ends in enumerate(ends_of):
        if not ends:
            continue
        base += cap + 1  # above every level of the previous ball
        end = base + 1
        level[y1] = base  # the BFS never passes y_1
        want = col[y1]
        cands = []
        for w in ends:
            level[w] = end
            if col[w] == want:
                cands.append(w)
        frontier = ends
        for d in range(end + 1, base + cap):
            ring = []
            for u in frontier:
                for w in adj[u]:
                    if level[w] < base:
                        level[w] = d
                        ring.append(w)
                        if col[w] == want:
                            cands.append(w)
            frontier = ring
        # x_1 may lie one step beyond the ball
        for u in frontier:
            for w in adj[u]:
                if level[w] < base and col[w] == want:
                    level[w] = base + cap
                    cands.append(w)
        used[y1] = True
        ys.append(y1)
        for x1 in cands:
            used[x1] = True
            xs.append(x1)
            stack = [grow(x1, y1, 1)]
            while stack:
                for pair in stack[-1]:
                    stack.append(grow(*pair))
                    break
                else:
                    stack.pop()
            xs.pop()
            used[x1] = False
        ys.pop()
        used[y1] = False
    if not hits:
        return None
    least = min(h for h, _ in hits)
    return min(min(p, p[::-1]) for h, p in hits if h == least)


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
        v, cid = _ints(ln, "colour line", 2)
        if v in colour:
            raise GraphInputError(f"vertex {v} coloured twice")
        colour[v] = cid
    return Colouring(colour)
