"""Nonrepetitive colourings from the labelling recursion.

A colouring is nonrepetitive if no path reads the same colour sequence
twice in a row.  The pipeline colours each vertex by (layer-pattern
symbol, depth, label): the depth/label pair comes from the separation
recursion, and the layer-pattern symbol colours layer i by the letter
W[i] of one fixed 4-symbol word W, under which any repetitively
coloured lazy walk over the layer indices must visit identical index
sequences (the lazy-walk lemma of Kündgen and Pelsmajer, Discrete
Math. 2008).

W is the fixed point of the 6-uniform morphism 0 -> 123103,
1 -> 120130, 2 -> 210230, 3 -> 213203 grown from 1, read from index 41:
the first index at which the fixed point reads 012013012, the word that
layerings of at most 9 layers have always been coloured with, so their
colourings stay as they were.  ``layer_pattern_colouring(t)`` is W[:t].  A
prefix of a good word is good, because a lazy walk inside the prefix is
a lazy walk in the whole word, so one certificate of W[:t] covers every
shorter layer count.  ``verify_layer_pattern`` checks a word for walks
of every length at once, by the components of its colour-equal index
pairs; a word passes iff it has no xx, no xyx and no square.  The tests
certify W[:2000] with it, and every length through Crochemore's
criterion: the morphism maps every square-free word of length 3 to a
word that passes.

``verify_nonrepetitive`` is the authority for every produced colouring,
and it too grows the two halves of a candidate square in lockstep as
colour-equal pairs, so that each half prunes the other.  It anchors the
search at the first vertex of the second half, inside a BFS ball around
that vertex that bounds how far the first half may stray.  It builds
flat tables once per call (colours by vertex, (degree, id) ranks, each
anchor's end list), finds the squares of half-length <= 2 by lookups
over those end lists with no ball, and runs the longer search on level
and mark lists that every anchor reuses.  Its oracle in the tests is an
exhaustive depth-first search; that of ``verify_layer_pattern`` is the
bounded lockstep search over lazy walks that it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    have matching index halves."""

    seq: tuple[int, ...]

    @property
    def symbol_count(self) -> int:
        return len(set(self.seq))


# the images of 0, 1, 2 and 3 under the morphism whose fixed point is W
_MORPHISM = ((1, 2, 3, 1, 0, 3), (1, 2, 0, 1, 3, 0), (2, 1, 0, 2, 3, 0), (2, 1, 3, 2, 0, 3))
_WORD_START = 41


@lru_cache(maxsize=None)
def layer_pattern_colouring(t: int) -> LayerPatternColouring:
    """The first t letters of the layer word W (see the module notes).

    The fixed point is grown from 1 by applying the morphism until it
    reaches index 41 + t; 1 maps to a word starting with 1, so each
    image extends the last.  Reading from index 41 keeps the prefix
    012013012 that layerings of at most 9 layers have always had.
    Every W[:t] is a prefix of W[:u] for u > t, and a lazy walk in
    W[:t] is a lazy walk in W[:u], so ``verify_layer_pattern`` passing
    on W[:2000] (a test) certifies every t <= 2000 for walks of every
    length; the morphism's square-freeness (another test) covers every t.
    """
    if t < 1:
        raise GraphInputError("need at least one layer")
    word = [1]
    while len(word) < _WORD_START + t:
        word = [s for x in word for s in _MORPHISM[x]]
    return LayerPatternColouring(tuple(word[_WORD_START : _WORD_START + t]))


def verify_layer_pattern(lp: LayerPatternColouring) -> Optional[tuple[int, ...]]:
    """Lazy-walk check for walks of every length: returns a lazy walk
    whose colour halves match on different index halves, or None.

    A walk x_1..x_k y_1..y_k with matching colour halves is a king-move
    path of cells (x_i, y_i) with seq[x_i] = seq[y_i], from (x_1, y_1)
    to (x_k, y_k), whose junction needs |x_k - y_1| <= 1; its index
    halves differ iff the path visits a cell off the diagonal.  King
    moves are symmetric, so such a path exists between two cells iff
    they lie in one component, and the word is bad iff some component
    with an off-diagonal cell holds cells (a, b) and (c, d) with
    |c - b| <= 1.

    The diagonal cells form one component.  It holds an off-diagonal
    cell iff seq[i] = seq[i + 1] (the walk i, i+1) or seq[i] = seq[i + 2]
    (the walk i, i+1, i+2, i+1).  Otherwise no symbol repeats within
    distance 2, so a cell (a, b) has no king neighbour in its own row
    and at most one in each adjacent row, at b + 1 or b - 1; and the
    column cannot turn back, since b_(a-1) = b_(a+1) would give
    seq[a - 1] = seq[a + 1].  So every other component is a straight
    run of cells (a + r, b +- r), and it is bad iff its rows and its
    columns, two intervals, come within 1 of each other.  That is
    symmetric, so a run below the diagonal is bad iff its mirror image
    above it is.  A run above the diagonal and against it has its least
    column at least 3 past its last row, and is harmless.  A run
    (a + r, a + p + r) along it is bad iff it has at least p cells, that
    is iff seq[a:a + p] = seq[a + p:a + 2 p], and the square itself is
    the walk.  So the word is bad iff it has xx, xyx or a square, and
    the check scans each period for p matching positions in a row:
    about t^2 / 2 comparisons.
    """
    seq = lp.seq
    t = len(seq)
    for i in range(t - 1):
        if seq[i] == seq[i + 1]:
            return (i, i + 1)
        if i + 2 < t and seq[i] == seq[i + 2]:
            return (i, i + 1, i + 2, i + 1)
    # periods 1 and 2 are xx and xyx, excluded above
    for p in range(3, t // 2 + 1):
        run = 0
        for j, (x, y) in enumerate(zip(seq, seq[p:])):
            run = run + 1 if x == y else 0
            if run == p:
                return tuple(range(j + 1 - p, j + 1 + p))
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
