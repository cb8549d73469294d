"""Combinatorial surface embeddings via rotation systems.

An embedded multigraph is stored as a loop-free edge list plus one cyclic
dart order per vertex.  Edge ``e`` owns darts ``2e`` (leaving its first
endpoint) and ``2e+1`` (leaving its second); ``d ^ 1`` reverses a dart.
Everything derived from the rotation is a flat int list indexed by dart:
``tail`` (the vertex a dart leaves), ``sigma`` (the next dart around that
vertex) and ``face_of`` (the face holding the dart).  Faces are the
orbits of ``d -> sigma[d ^ 1]``, listed in the order of their least
darts, each walk starting at its least dart; the bags of the genus
decomposition and its dual tree follow that order.  The Euler genus of
the embedding follows from Euler's formula.  Only orientable rotation
systems are supported.

``triangulate`` makes its result's faces in that order as it fans: the
chords' darts are numbered after every old dart, so each new triangle's
least dart is an old dart, which lies in that triangle alone, and each
triangle, started there, is stored in a slot indexed by that dart.  The
rotation is rebuilt from those walks, which are handed over as the
result's faces instead of being rotated, sorted or walked again.
``tree_cotree`` runs its primal and dual BFS searches on the same lists.

An ``EmbeddedGraph`` checks itself when built: loops in bulk over
``tail``, and every dart listed once, at its tail, in one pass over the
rotation, which also puts every endpoint in range; the per-edge scan
runs only to name the first bad edge.

Planar graphs are embedded by Brandes' left-right planarity test (U.
Brandes, "The Left-Right Planarity Test", 2009), ported from networkx's
``LRPlanarity`` onto flat int lists preallocated to their final size,
with networkx's helper methods inlined into the testing DFS.  The
clockwise links are kept on darts, so the rotations are read off them
with no translation.  It reads the graph in its canonical order,
``Graph.sorted_edges``, so equal graphs get equal rotation systems: at
every vertex ``embed_planar`` returns the clockwise order networkx's
``check_planarity`` returns for a graph built from that sorted edge
list.  The tests keep networkx and the stepwise port, one helper per
networkx method, as oracles.  The package itself imports no networkx.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import eq, not_
from typing import Iterable, Optional, Sequence

from .graphs import Graph, GraphInputError, _ints


class EmbeddingError(ValueError):
    """Raised for malformed rotation systems or unmet face preconditions."""


class EmbedderSelfCheckError(EmbeddingError):
    """An embedding the package built failed its own check: the planar
    embedder returned a rotation system of nonzero genus for a graph it
    found planar, or ``triangulate`` changed the genus.  An internal
    fault, not invalid input."""


@dataclass(frozen=True)
class EmbeddedGraph:
    """Loop-free multigraph with a rotation system.

    ``tail``, ``sigma`` and ``face_of`` are int lists indexed by dart:
    the vertex a dart leaves, the next dart around that vertex, and the
    index in ``faces`` of the walk holding the dart.
    """

    n: int
    edge_list: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]
    tail: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, edge_list, rotation = self.n, self.edge_list, self.rotation
        tail = list(chain.from_iterable(edge_list))
        object.__setattr__(self, "tail", tail)
        # Every dart must be listed once, at its tail: each dart's last
        # lister is its tail, no dart is negative and there are 2m entries.
        # The listers are vertices, so that also puts every tail in range,
        # and a dart no vertex lists keeps an owner that is no vertex.
        m2 = len(tail)
        owner: list[Optional[int]] = [None] * m2
        try:
            for v, darts in enumerate(rotation):
                for d in darts:
                    owner[d] = v
        except IndexError:
            owner = []
        if (
            m2 != 2 * len(edge_list)
            or any(map(eq, tail[0::2], tail[1::2]))
            or len(rotation) != n
            or owner != tail
            or sum(map(len, rotation)) != m2
            or min(chain.from_iterable(rotation), default=0) < 0
        ):  # name the first fault: an edge, the vertex count, a rotation
            for e, (u, v) in enumerate(edge_list):
                if u == v:
                    raise EmbeddingError(f"loop at vertex {u} (edge {e})")
                if not (0 <= u < n and 0 <= v < n):
                    raise EmbeddingError(f"edge {e}=({u},{v}) out of range")
            if len(rotation) != n:
                raise EmbeddingError("rotation must list every vertex")
            bad = _first_unmatched_vertex(rotation, tail)
            raise EmbeddingError(f"rotation at vertex {bad} does not match its darts")

    @property
    def m(self) -> int:
        return len(self.edge_list)

    def dart_tail(self, d: int) -> int:
        return self.tail[d]

    @cached_property
    def sigma(self) -> list[int]:
        """Rotation successor of each dart around its tail vertex."""
        succ = [0] * len(self.tail)
        for darts in self.rotation:
            if darts:
                prev = darts[-1]
                for d in darts:
                    succ[prev] = d
                    prev = d
        return succ

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face boundary walks, the orbits of ``d -> sigma[d ^ 1]``, in
        the order of their least darts, each starting at its least dart."""
        sigma = self.sigma
        seen = bytearray(len(sigma))
        out: list[tuple[int, ...]] = []
        for start in range(len(sigma)):
            if seen[start]:
                continue
            walk = []
            d = start
            while not seen[d]:
                seen[d] = 1
                walk.append(d)
                d = sigma[d ^ 1]
            out.append(tuple(walk))
        return tuple(out)

    @cached_property
    def face_of(self) -> list[int]:
        """Index in ``faces`` of the walk holding each dart."""
        face_of = [0] * len(self.tail)
        for f, walk in enumerate(self.faces):
            for d in walk:
                face_of[d] = f
        return face_of

    @cached_property
    def euler_genus(self) -> int:
        """Euler genus 2 - (n - m + F) of a connected embedding.  The
        connectivity search walks the rotation system, so no ``Graph`` is
        built for an embedding that is only checked."""
        tail = self.tail
        reached = bytearray(self.n)
        stack = [0] if self.n else []
        if stack:
            reached[0] = 1
        while stack:
            for d in self.rotation[stack.pop()]:
                w = tail[d ^ 1]
                if not reached[w]:
                    reached[w] = 1
                    stack.append(w)
        if not self.n or 0 in reached:
            raise EmbeddingError("embedded graph must be connected")
        if self.m == 0:
            return 0
        g = 2 - (self.n - self.m + len(self.faces))
        if g < 0:
            raise EmbeddingError(f"negative genus {g}: invalid rotation system")
        return g

    @cached_property
    def _graph(self) -> Graph:
        return Graph.from_edges(self.n, self.edge_list)

    def to_graph(self) -> Graph:
        """Underlying simple graph (parallel edges collapsed), built once
        per embedding."""
        return self._graph


def _first_unmatched_vertex(
    rotation: Sequence[Sequence[int]], tail: list[int]
) -> int:
    """The least vertex whose rotation is not its set of darts: the first
    to list a dart that is out of range, foreign or repeated, unless an
    earlier vertex lists fewer darts than its degree."""
    m2 = len(tail)
    placed = bytearray(m2)
    bad = len(rotation)
    for v, darts in enumerate(rotation):
        for d in darts:
            if not 0 <= d < m2 or tail[d] != v or placed[d]:
                break
            placed[d] = 1
        else:
            continue
        bad = v
        break
    deg = Counter(tail)
    return next((v for v in range(bad) if len(rotation[v]) != deg[v]), bad)


def _rotation_from_faces(
    n: int,
    edge_list: list[tuple[int, int]],
    face_walks: Sequence[Sequence[int]],
) -> EmbeddedGraph:
    """Rebuild the rotation system from a complete set of face walks, in
    which each dart's head is the next dart's tail, given in any order
    and each from any dart.

    The walks are put in the order ``faces`` has (each started at its
    least dart, sorted by those darts) and handed to
    ``_rotation_from_canonical_faces``, which checks them and rebuilds.
    ``triangulate`` makes its walks in that order as it fans, so it calls
    the rebuild directly: its chords' darts are numbered after every old
    dart, so each new triangle's least dart is an old one, which lies in
    that triangle alone and indexes the triangle's slot.
    """
    faces = sorted(
        walk[i:] + walk[:i]
        for walk in map(tuple, face_walks)
        for i in [walk.index(min(walk)) if walk else 0]
    )
    return _rotation_from_canonical_faces(n, edge_list, faces)


def _rotation_from_canonical_faces(
    n: int,
    edge_list: list[tuple[int, int]],
    faces: Sequence[tuple[int, ...]],
) -> EmbeddedGraph:
    """Rebuild the rotation system from a complete set of face walks in
    the order of ``EmbeddedGraph.faces`` (each walk starting at its least
    dart, the walks sorted by those darts), and hand the walks over as
    the result's ``faces``.

    ``phi`` maps each dart to the next one on its walk and the rotation is
    sigma = phi o alpha, where alpha is ``d -> d ^ 1``.  The faces of a
    rotation are the orbits of sigma o alpha = phi o alpha o alpha = phi,
    so they are exactly the given walks, and in that order they are what
    ``faces`` would walk.  The result's Euler genus therefore counts its
    true faces, and a caller comparing it with another genus compares true
    genera.  Every dart must lie on one walk and the rotation must be
    connected at every vertex; the order is the caller's to keep.
    """
    m2 = 2 * len(edge_list)
    phi = [-1] * m2
    try:
        for walk in faces:
            prev = walk[-1]
            for d in walk:
                phi[prev] = d
                prev = d
    except IndexError:
        phi = [-1]
    # phi's values are the listed darts, so when 2m are listed a negative
    # value is a negative dart or a slot no walk wrote
    if sum(map(len, faces)) != m2 or min(phi, default=0) < 0:
        raise EmbeddingError("face walks do not cover every dart exactly once")
    sigma = [0] * m2
    sigma[::2] = phi[1::2]
    sigma[1::2] = phi[::2]
    tail = list(chain.from_iterable(edge_list))
    least = [-1] * n
    for d in range(m2 - 1, -1, -1):
        least[tail[d]] = d
    rotation: list[tuple[int, ...]] = []
    for start in least:
        if start < 0:
            rotation.append(())
            continue
        cyc = [start]
        d = sigma[start]
        while d != start:
            cyc.append(d)
            d = sigma[d]
        rotation.append(tuple(cyc))
    if sum(map(len, rotation)) != m2:
        deg = Counter(tail)
        v = next(v for v in range(n) if len(rotation[v]) != deg[v])
        raise EmbeddingError(f"face walks induce a disconnected rotation at vertex {v}")
    eg = EmbeddedGraph(n, tuple(edge_list), tuple(rotation))
    eg.__dict__["sigma"] = sigma
    eg.__dict__["faces"] = tuple(faces)
    return eg


def _drop_bigons(eg: EmbeddedGraph) -> EmbeddedGraph:
    """Delete parallel edges bounding faces of length 2, keeping the
    least edge of each class of edges joined by such faces.

    The two boundary edges of such a face are parallel, so the underlying
    simple graph is unchanged.  Deleting edge y of a bigon {x, y} merges
    x into the face on y's other side, so it makes a bigon only of x and
    an edge that shares a bigon with y: deleting one edge at a time, the
    larger of the first bigon each time, ends with the least edge of each
    class, which is never the larger of a bigon.  Deletion keeps the edge
    order, so one pass over the faces gives the same embedding.  A face of
    length 2 that is left is bounded by a single edge.
    """
    bigons = [walk for walk in eg.faces if len(walk) == 2]
    if not bigons:
        return eg
    least = list(range(eg.m))  # union-find; each class points at its least edge

    def find(e: int) -> int:
        while least[e] != e:
            least[e] = least[least[e]]
            e = least[e]
        return e

    for d1, d2 in bigons:
        a, b = find(d1 >> 1), find(d2 >> 1)
        least[max(a, b)] = min(a, b)
    new_id = [-1] * eg.m
    edge_list = []
    for e, uv in enumerate(eg.edge_list):
        if find(e) == e:
            new_id[e] = len(edge_list)
            edge_list.append(uv)
    rotation = tuple(
        tuple(2 * new_id[d >> 1] + (d & 1) for d in darts if new_id[d >> 1] >= 0)
        for darts in eg.rotation
    )
    out = EmbeddedGraph(eg.n, tuple(edge_list), rotation)
    if any(len(walk) == 2 for walk in out.faces):
        raise EmbeddingError("degenerate face bounded by a single edge")
    return out


def triangulate(eg: EmbeddedGraph) -> EmbeddedGraph:
    """Fan every face of length >= 4 so that all faces become triangles.

    Original edges are preserved up to removal of redundant parallel
    copies, the genus does not increase and parallel edges may be
    introduced.  Faces of length >= 4 are fanned from the corner with
    minimum vertex id whose fan chords produce no loops.  An embedding
    whose faces are all triangles once bigons are dropped is returned as
    it is.

    The fan makes the result's faces in their final order, each walk
    starting at its least dart and the walks sorted by those darts, as
    ``EmbeddedGraph.faces`` lists them.  The chords' darts are numbered
    after every old dart, so each new triangle's least dart is an old
    dart, and every old dart lies in one triangle alone: the triangle is
    stored, started at that dart, in a slot indexed by it, and the slots
    in dart order are the faces.  ``_rotation_from_canonical_faces``
    rebuilds the rotation from them and hands them over as the result's
    faces rather than walking them again; they are its faces by
    construction, so the genus self-check below compares true genera.  A
    fan that changes the genus raises ``EmbedderSelfCheckError``.
    """
    if eg.n < 3:
        raise EmbeddingError("triangulation needs at least 3 vertices")
    eg = _drop_bigons(eg)
    if all(len(walk) == 3 for walk in eg.faces):
        return eg
    tail = eg.tail
    edge_list = list(eg.edge_list)
    slot: list[tuple[int, ...]] = [()] * len(tail)  # new face by least dart
    for walk in eg.faces:
        k = len(walk)
        if k == 3:
            slot[walk[0]] = walk
            continue
        # chord j = 2..k-2 joins the apex to corner j of the walk w started
        # at the apex; the dart leaving the apex on chord j is c + 2(j - 2)
        c = 2 * len(edge_list)
        if k == 4:
            # The quadrangle's chords join corners 0 and 2 or 1 and 3, and
            # a corner's chord is a loop iff the opposite corner is the same
            # vertex.  Its neighbours differ from it (no loops), so the
            # corners that make no loop have distinct vertices, and the
            # least of them is the apex.
            d0, d1, d2, d3 = walk
            t0, t1, t2, t3 = tail[d0], tail[d1], tail[d2], tail[d3]
            low02 = t0 if t0 < t2 else t2
            low13 = t1 if t1 < t3 else t3
            if t0 != t2 and (t1 == t3 or low02 < low13):
                w = walk if t0 < t2 else (d2, d3, d0, d1)
            elif t1 != t3:
                w = (d1, d2, d3, d0) if t1 < t3 else (d3, d0, d1, d2)
            else:
                raise EmbeddingError("no loop-free fan corner on face walk")
            edge_list.append((tail[w[0]], tail[w[2]]))
        elif k < 3:
            raise EmbeddingError(
                f"face of length {k} cannot be triangulated without new vertices"
            )
        else:
            # The apex is the first corner in (vertex, position) order whose
            # chords make no loop.  Corner r's chords make one iff verts[r]
            # recurs at offsets 2..k-2; its neighbours on the walk differ
            # from it (no loops), so iff it occurs more than once.  So the
            # least vertex is tried first, then the least vertex that
            # occurs once.
            verts = list(map(tail.__getitem__, walk))
            apex = min(verts)
            if verts.count(apex) > 1:
                counts = Counter(verts)
                apex = min((v for v, c in counts.items() if c == 1), default=None)
                if apex is None:
                    raise EmbeddingError("no loop-free fan corner on face walk")
            r = verts.index(apex)
            w = walk[r:] + walk[:r]
            edge_list += [(apex, v) for v in (verts[r:] + verts[:r])[2:-1]]
            # triangle (x, w[j], x + 3), x chord j's apex dart, holds one
            # old dart, w[j]
            for j, x in zip(range(2, k - 2), range(c, 2 * len(edge_list), 2)):
                slot[w[j]] = (w[j], x + 3, x)
        # the first triangle (w[0], w[1], c + 1) and the last (x, w[k-2],
        # w[k-1]), x the last chord's apex dart, each hold two old darts
        a, b = w[0], w[1]
        if a < b:
            slot[a] = (a, b, c + 1)
        else:
            slot[b] = (b, c + 1, a)
        a, b, x = w[-2], w[-1], 2 * len(edge_list) - 2
        if a < b:
            slot[a] = (a, b, x)
        else:
            slot[b] = (b, x, a)
    out = _rotation_from_canonical_faces(eg.n, edge_list, tuple(filter(None, slot)))
    if out.euler_genus != eg.euler_genus:
        raise EmbedderSelfCheckError("triangulation changed the genus")
    return out


@dataclass(frozen=True)
class TreeCotree:
    """Primal spanning tree (BFS from the root clique plus a star on it),
    dual spanning tree and the g leftover dual edges.

    ``parent`` and ``depth`` are lists indexed by vertex: depth is the
    distance from the roots, the least root is its own parent and the
    other roots' parent is the least root.  ``dual_parent`` is indexed by
    face, -1 at the dual tree's root.
    """

    parent: list[int]
    depth: list[int]
    primal_tree_edges: frozenset[int]
    dual_parent: list[int]
    dual_tree_edges: frozenset[int]
    extra_edges: tuple[int, ...]  # X, as primal edge ids

    @property
    def x_size(self) -> int:
        return len(self.extra_edges)


def _bfs(
    order: list[int],
    darts_at: Sequence[Sequence[int]],
    across: list[int],
    skip: bytearray,
) -> tuple[list[int], list[int]]:
    """BFS forest from the nodes in ``order``, on vertices or on faces.

    Node x's edges are its darts ``darts_at[x]``; dart d leads to node
    ``across[d ^ 1]`` by edge d >> 1 unless ``skip`` marks that edge.
    Each node's edges are taken as if sorted by (node reached, edge id):
    new nodes are queued in ascending order, each by its least edge from
    the node that reached it.  Appends to ``order``; returns the parent of
    each node (-1 at a root) and the edge joining it to its parent.
    """
    k = len(darts_at)
    parent, via = [-1] * k, [-1] * k
    seen = bytearray(k)
    for x in order:
        seen[x] = 1
    for x in order:
        found = []
        for d in darts_at[x]:
            e = d >> 1
            if skip[e]:
                continue
            y = across[d ^ 1]
            if not seen[y]:
                seen[y] = 1
                parent[y], via[y] = x, e
                found.append(y)
            elif parent[y] == x and e < via[y]:
                via[y] = e
        found.sort()
        order.extend(found)
    return parent, via


def tree_cotree(eg: EmbeddedGraph, roots: Iterable[int]) -> TreeCotree:
    """Split the edges of a triangulation into a primal spanning tree, a
    dual spanning tree and exactly ``genus`` leftover edges.

    ``roots`` is a clique K.  The primal tree is the BFS forest grown from
    K plus a star joining the least root to every other root (by the least
    edge id), so depth is the distance from K and every root path ends at
    the least root.  The split works for any spanning tree, since the
    edges off it always hold a dual spanning tree and ``genus`` more.
    Both searches scan neighbours in ascending (neighbour, edge id) order.
    """
    faces = eg.faces
    for walk in faces:
        if len(walk) != 3:
            raise EmbeddingError(
                f"tree_cotree requires a triangulation; face of length {len(walk)}"
            )
    n, m, tail, rotation = eg.n, eg.m, eg.tail, eg.rotation
    root_set = sorted(set(roots))
    root = root_set[0]
    order = list(root_set)
    in_tree = bytearray(m)  # the primal tree's edges, then the dual tree's
    parent, via = _bfs(order, rotation, tail, in_tree)
    if len(order) != n:
        missing = min(set(range(n)) - set(order))
        raise GraphInputError(f"vertex {missing} unreachable from roots")
    depth = [0] * n
    for v in order[len(root_set):]:
        depth[v] = depth[parent[v]] + 1
    star: dict[int, int] = {}
    for d in rotation[root]:
        w = tail[d ^ 1]
        if depth[w] == 0 and d >> 1 < star.get(w, m):
            star[w] = d >> 1
    if len(star) != len(root_set) - 1:
        raise GraphInputError("root set is not a clique")
    for w, e in star.items():
        parent[w], via[w] = root, e
    parent[root] = root
    tree_edges = via[:root] + via[root + 1 :]
    for e in tree_edges:
        in_tree[e] = 1

    # BFS spanning tree of the dual over the edges off the primal tree,
    # rooted at the least face incident to the least root.
    face_of = eg.face_of
    forder = [min(face_of[d] for d in rotation[root])]
    fparent, fvia = _bfs(forder, faces, face_of, in_tree)
    if len(forder) != len(faces):
        raise EmbeddingError("dual graph disconnected: invalid triangulation")
    dual_tree = [fvia[f] for f in forder[1:]]
    for e in dual_tree:
        in_tree[e] = 1
    tc = TreeCotree(
        parent,
        depth,
        frozenset(tree_edges),
        fparent,
        frozenset(dual_tree),
        tuple(compress(range(m), map(not_, in_tree))),
    )
    if tc.x_size != eg.euler_genus:
        raise EmbeddingError(
            f"|X|={tc.x_size} does not equal genus {eg.euler_genus}"
        )
    return tc


def _lr_rotation(g: Graph) -> Optional[list[list[int]]]:
    """Brandes' left-right planarity test with embedding extraction.

    Returns each vertex's darts in clockwise order, starting at its
    leftmost neighbour, or ``None`` when ``g`` is not planar.  Edge
    ``k`` is ``g.sorted_edges[k]``, with darts as in ``EmbeddedGraph``,
    and each vertex's darts are scanned in ascending dart order, which
    is the ascending neighbour order networkx's ``LRPlanarity`` copies
    from a graph built from the sorted edge list.  This is
    ``LRPlanarity`` (iterative variant) on flat int lists, so it returns
    the rotations ``check_planarity`` returns for that graph: the same
    DFS orientation, stable sorts by nesting depth before the test and
    after ``sign``, the same half-edge insertion rules and the same
    leftmost neighbour at every vertex.

    Dart ``d`` runs from ``ends[d]`` to ``ends[d ^ 1]``.  Oriented edges
    are numbered in orientation order, as networkx's are, and the
    per-edge lists hold ``g.m`` entries in that order, so the DFS passes
    read them near where they last wrote them (on a 2-vCPU host, at
    n = 102,400, about a fifth less time than lists indexed by dart).
    ``dart[x]`` is the dart by which oriented edge ``x`` leaves its
    tail, and what only tree edges carry is kept at the vertex they
    enter.  The half-edges linked into each vertex's ``cw`` cycle are
    the darts leaving it, so the rotations are read off the links as
    they are.  networkx's ``add_constraints``, ``remove_back_edges``,
    ``lowest`` and ``conflicting`` are inlined into the testing DFS.  A
    conflict pair is a list ``[left.low, left.high, right.low,
    right.high]`` with -1 for "no edge"; the stack of pairs ``S`` rests
    on an empty pair, which ``lowpt[-1] = -1`` keeps from ever being
    dropped, and stack bottoms are compared by identity.  The tests keep
    the stepwise port, one helper per networkx method, as the oracle.
    """
    n, m = g.n, g.m
    if n > 2 and m > 3 * n - 6:
        return None
    ends = list(chain.from_iterable(g.sorted_edges))
    darts_at: list[list[int]] = [[] for _ in range(n)]
    for d, v in enumerate(ends):
        darts_at[v].append(d)

    # Orientation DFS: heights, lowpoints and nesting depths.  The edge of
    # a dart at v is oriented already when it leads back to v's parent or
    # down to a finished descendant (which oriented it upwards).  What
    # only tree edges carry is kept at the vertex they enter: parent[w],
    # parent_edge[w] and low2[w], the second lowpoint of w's parent edge
    # (a back edge's is its tail's height).
    height = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    dart = [0] * m
    head = [0] * m
    lowpt = [0] * (m + 1)
    lowpt[-1] = -1  # the lowpoint of "no edge", below every height
    low2 = [0] * n
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges by tail
    ind = [0] * n  # next dart to scan; ~i while the tree edge at i is open
    roots: list[int] = []
    x_next = 0
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            pv = parent[v]
            hv = height[v]
            darts = darts_at[v]
            i, x = ind[v], -1
            if i < 0:
                i = ~i
                x = parent_edge[ends[darts[i] ^ 1]]
            k = len(darts)
            while i < k:
                if x < 0:
                    d = darts[i]
                    w = ends[d ^ 1]
                    hw = height[w]
                    if hw > hv or w == pv:
                        i += 1
                        continue
                    x = x_next
                    x_next += 1
                    dart[x] = d
                    head[x] = w
                    out[v].append(x)
                    if hw < 0:  # tree edge
                        lowpt[x] = low2[w] = hv
                        parent[w] = v
                        parent_edge[w] = x
                        height[w] = hv + 1
                        ind[v] = ~i
                        stack.append(v)
                        stack.append(w)
                        break
                    lp = lowpt[x] = hw  # back edge
                    l2 = hv
                else:  # back from the tree edge x
                    lp, l2 = lowpt[x], low2[head[x]]
                nesting[x] = 2 * lp + (l2 < hv)
                if e >= 0:
                    le = lowpt[e]
                    if lp < le:
                        low2[v] = le if le < l2 else l2
                        lowpt[e] = lp
                    elif lp > le:
                        if lp < low2[v]:
                            low2[v] = lp
                    elif l2 < low2[v]:
                        low2[v] = l2
                i += 1
                x = -1

    # Testing: build the stack of conflict pairs and the side references.
    # Again what only tree edges carry is kept at the vertex they enter:
    # low_edge[w] is the lowpoint edge of w's parent edge and bottom[w]
    # the top of S when that edge was entered.  A back edge is its own
    # lowpoint edge, and its bottom is the top of S before its pair.
    ordered = [sorted(o, key=nesting.__getitem__) for o in out]
    ref = [-1] * (m + 1)  # ref[-1] absorbs networkx's writes to ref[None]
    side = [1] * m
    low_edge = [-1] * n
    bottom: list[Optional[list[int]]] = [None] * n
    S = [[-1, -1, -1, -1]]
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            adjv = ordered[v]
            i = ind[v]
            resuming = i < 0
            if resuming:
                i = ~i
            k = len(adjv)
            while i < k:
                ei = adjv[i]
                w = head[ei]
                if resuming:
                    resuming = False
                    low, b = low_edge[w], bottom[w]
                elif parent_edge[w] == ei:  # tree edge
                    bottom[w] = S[-1]
                    ind[v] = ~i
                    stack.append(v)
                    stack.append(w)
                    break
                else:  # back edge
                    low, b = ei, S[-1]
                    S.append([-1, -1, ei, ei])
                lpi = lowpt[ei]
                if lpi < hv:  # integrate new return edges
                    if i == 0:
                        low_edge[v] = low
                    else:  # add_constraints(ei, e) into P = [l0, l1, r0, r1]
                        l0 = l1 = r0 = r1 = -1
                        le = lowpt[e]
                        # merge return edges of ei into P.right
                        while True:
                            q0, q1, q2, q3 = S.pop()
                            if q0 >= 0 or q1 >= 0:
                                if q2 >= 0 or q3 >= 0:
                                    return None
                                q2, q3 = q0, q1
                            if lowpt[q2] > le:  # merge
                                if r0 < 0 and r1 < 0:
                                    r1 = q3
                                else:
                                    ref[r0] = q3
                                r0 = q2
                            else:  # align
                                ref[q2] = low_edge[v]
                            if S[-1] is b:
                                break
                        # merge conflicting return edges of earlier
                        # siblings into P.left
                        while True:
                            q0, q1, q2, q3 = S[-1]
                            cl = (q0 >= 0 or q1 >= 0) and lowpt[q1] > lpi
                            cr = (q2 >= 0 or q3 >= 0) and lowpt[q3] > lpi
                            if not (cl or cr):
                                break
                            S.pop()
                            if cr:
                                if cl:
                                    return None
                                q0, q1, q2, q3 = q2, q3, q0, q1
                            ref[r0] = q3
                            if q2 >= 0:
                                r0 = q2
                            if l0 < 0 and l1 < 0:
                                l1 = q1
                            else:
                                ref[l0] = q1
                            l0 = q0
                        if l0 >= 0 or l1 >= 0 or r0 >= 0 or r1 >= 0:
                            S.append([l0, l1, r0, r1])
                i += 1
            else:
                if e < 0:
                    continue
                # remove_back_edges(e): u is v's parent
                u = parent[v]
                hu = hv - 1
                # drop entire conflict pairs returning to u
                while True:
                    P = S[-1]
                    p0, p1, p2, p3 = P
                    if p0 < 0 and p1 < 0:
                        lo = lowpt[p2]
                    elif p2 < 0 and p3 < 0:
                        lo = lowpt[p0]
                    else:
                        lo = min(lowpt[p0], lowpt[p2])
                    if lo != hu:
                        break
                    S.pop()
                    if p0 >= 0:
                        side[p0] = -1
                # one more conflict pair to consider: the top one
                while P[1] >= 0 and head[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] < 0 and P[0] >= 0:  # just emptied
                    ref[P[0]] = P[2]
                    side[P[0]] = -1
                    P[0] = -1
                while P[3] >= 0 and head[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] < 0 and P[2] >= 0:  # just emptied
                    ref[P[2]] = P[0]
                    side[P[2]] = -1
                    P[2] = -1
                # side of e is side of a highest return edge
                if lowpt[e] < hu:
                    hl, hr = P[1], P[3]
                    if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr

    # Resolve relative sides (networkx's ``sign``) and sort again.
    for x in range(m):
        if ref[x] >= 0:
            path = []
            y = x
            while ref[y] >= 0:
                path.append(y)
                ref[y], y = -1, ref[y]
            s = side[y]
            for z in reversed(path):
                s = side[z] = side[z] * s
        if side[x] < 0:
            nesting[x] = -nesting[x]
    ordered = [sorted(o, key=nesting.__getitem__) for o in out]

    # cw/ccw link each vertex's half-edges, the darts leaving it, into a
    # cycle; leftmost[v] starts the rotation.  First the oriented edges
    # out of each vertex, in their order.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    leftmost = [-1] * n
    for v, o in enumerate(ordered):
        if o:
            prev = dart[o[-1]]
            for x in o:
                h = dart[x]
                cw[prev] = h
                ccw[h] = prev
                prev = h
            leftmost[v] = dart[o[0]]

    # Complete the embedding (``dfs_embedding``): the head's half-edge
    # dart[x] ^ 1 of each oriented edge x.
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            adjv = ordered[v]
            i, k = ind[v], len(adjv)
            while i < k:
                ei = adjv[i]
                i += 1
                h = dart[ei] ^ 1
                w = head[ei]
                if parent_edge[w] == ei:  # tree edge: v becomes w's leftmost
                    a = leftmost[w]
                    if a < 0:
                        cw[h] = ccw[h] = h
                    else:  # h goes counterclockwise of a
                        b = ccw[a]
                        cw[h], ccw[h] = a, b
                        cw[b] = ccw[a] = h
                    leftmost[w] = h
                    left_ref[v] = right_ref[v] = h ^ 1
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # h goes clockwise of right_ref[w]
                    a = right_ref[w]
                    b = cw[a]
                    cw[h], ccw[h] = b, a
                    ccw[b] = cw[a] = h
                else:  # h goes counterclockwise of left_ref[w]
                    a = left_ref[w]
                    if a == leftmost[w]:
                        leftmost[w] = h
                    b = ccw[a]
                    cw[h], ccw[h] = a, b
                    cw[b] = ccw[a] = h
                    left_ref[w] = h

    rotation: list[list[int]] = []
    for h0 in leftmost:
        darts = []
        if h0 >= 0:
            darts.append(h0)
            h = cw[h0]
            while h != h0:
                darts.append(h)
                h = cw[h]
        rotation.append(darts)
    return rotation


def embed_planar(g: Graph) -> EmbeddedGraph:
    """Planar rotation system for a connected planar simple graph.

    The edge list is ``g.sorted_edges``, so the result is a function of
    the graph value alone.  Planarity is decided, and the rotations are
    found, by Brandes' left-right planarity test (U. Brandes, "The
    Left-Right Planarity Test", 2009) in ``_lr_rotation``.  It follows
    networkx's ``check_planarity`` step by step, so each vertex's
    clockwise neighbour order equals ``PlanarEmbedding.neighbors_cw_order``
    for networkx's graph built from the sorted edge list (the tests keep
    networkx as the oracle).  Raises ``EmbeddingError`` for the empty,
    a non-planar or a disconnected graph, and ``EmbedderSelfCheckError``
    if the rotation system fails the genus-0 self-check.
    """
    if g.n == 0:
        raise EmbeddingError("cannot embed the empty graph")
    rotation = _lr_rotation(g)
    if rotation is None:
        raise EmbeddingError("graph is not planar")
    eg = EmbeddedGraph(g.n, g.sorted_edges, tuple(map(tuple, rotation)))
    eg.__dict__["_graph"] = g  # its simple graph: share it, build no copy
    if eg.euler_genus != 0:
        raise EmbedderSelfCheckError("planar embedding produced nonzero genus")
    return eg


# ---------------------------------------------------------------------------
# Rotation-system text format: "n m g", then m lines "e u v", then n lines
# with each vertex's incident edge ids in rotation order.
# ---------------------------------------------------------------------------


def parse_rotation_system(text: str) -> EmbeddedGraph:
    """Read the header ``n m [g]``, m edge lines ``e u v`` and n rotation
    lines listing the edge ids at each vertex in rotation order.  An
    isolated vertex has an empty rotation line, so blank lines count
    once the rotation lines start; elsewhere, and after the n-th rotation
    line, they are skipped.  Any text that is not a valid rotation system
    raises ``GraphInputError``."""
    lines = [s.strip() for s in text.splitlines()]
    filled = [i for i, ln in enumerate(lines) if ln]
    if not filled:
        raise GraphInputError("empty rotation-system file")
    head = _ints(lines[filled[0]], "header")
    if len(head) not in (2, 3) or min(head[:2]) < 0:
        raise GraphInputError(f"bad header {lines[filled[0]]!r}")
    n, m = head[:2]
    declared_g = head[2] if len(head) == 3 else None
    if len(filled) < 1 + m:
        raise GraphInputError(f"expected {m} edge lines, got {len(filled) - 1}")
    rotation_lines = lines[filled[m] + 1 :]
    while len(rotation_lines) > n and not rotation_lines[-1]:
        rotation_lines.pop()
    if len(rotation_lines) != n:
        raise GraphInputError(
            f"expected {n} rotation lines, got {len(rotation_lines)}"
        )
    edge_list = _edge_block([lines[i] for i in filled[1 : 1 + m]])
    rotation: list[tuple[int, ...]] = []
    for v, ln in enumerate(rotation_lines):
        darts = []
        for e in _ints(ln, "rotation line"):
            if not 0 <= e < m:
                raise GraphInputError(f"edge id {e} out of range")
            u, w = edge_list[e]
            if v == u:
                darts.append(2 * e)
            elif v == w:
                darts.append(2 * e + 1)
            else:
                raise GraphInputError(f"edge {e} not incident to vertex {v}")
        rotation.append(tuple(darts))
    try:
        eg = EmbeddedGraph(n, tuple(edge_list), tuple(rotation))
        genus = eg.euler_genus
    except EmbeddingError as exc:
        raise GraphInputError(f"not a rotation system: {exc}") from exc
    if declared_g is not None and genus != declared_g:
        raise GraphInputError(
            f"declared genus {declared_g} != embedding genus {genus}"
        )
    return eg


def _edge_block(lines: list[str]) -> list[tuple[int, int]]:
    """The edge list of the edge lines ``e u v``, indexed by id.  Lines
    of three integers with ids 0..m-1 in order, as the writer emits them,
    are read with one ``map(int, ...)`` over the block; any other block
    is read line by line, which raises ``GraphInputError`` naming the
    first bad line."""
    m = len(lines)
    rows = list(map(str.split, lines))
    if set(map(len, rows)) <= {3}:
        try:
            flat = list(map(int, chain.from_iterable(rows)))
        except ValueError:
            flat = []
        if flat[0::3] == list(range(m)):
            return list(zip(flat[1::3], flat[2::3]))
    edge_list: list[tuple[int, int]] = [(-1, -1)] * m
    for ln in lines:
        e, u, v = _ints(ln, "edge line", 3)
        if not 0 <= e < m or edge_list[e] != (-1, -1):
            raise GraphInputError(f"bad or duplicate edge id in {ln!r}")
        edge_list[e] = (u, v)
    return edge_list


def format_rotation_system(eg: EmbeddedGraph) -> str:
    lines = [f"{eg.n} {eg.m} {eg.euler_genus}"]
    for e, (u, v) in enumerate(eg.edge_list):
        lines.append(f"{e} {u} {v}")
    for v in range(eg.n):
        lines.append(" ".join(str(d // 2) for d in eg.rotation[v]))
    return "\n".join(lines) + "\n"
