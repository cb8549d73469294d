"""The flat-list embedding core against the dict-based core it replaced,
and the left-right embedder against its stepwise port.

``DictEmbedding`` derives ``sigma``, the faces and the Euler genus with
dicts and sets, and the functions below it are the earlier
``_rotation_from_faces``, the bigon loop that rebuilt the embedding once
per bigon, ``triangulate`` and ``tree_cotree``, kept here as oracles:
the flat core must return the same values in the same order and raise
the same errors.  ``_stepwise_lr_rotation`` is the left-right test as it
was ported from networkx, one helper per method; ``_lr_rotation``, with
the helpers inlined and its lists preallocated, must return the same
rotations, or ``None`` for the same graphs.
"""

from collections import deque
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    _drop_bigons,
    _lr_rotation,
    _rotation_from_faces,
    embed_planar,
    tree_cotree,
    triangulate,
)
from layersep.generators import random_planar_triangulation, toroidal_grid
from layersep.graphs import Graph, GraphInputError
from tests.conftest import embedded_graphs
from tests.test_embedding import (
    kuratowski_glued,
    outerplanar_graphs,
    sparse_gnm,
    spanning_subgraphs,
    triangulations,
)


class DictEmbedding:
    """Oracle: a rotation system checked by sorting each vertex's darts,
    with ``sigma`` a dict and faces walked with a seen set."""

    def __init__(self, n, edge_list, rotation):
        expected = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edge_list):
            if u == v:
                raise EmbeddingError(f"loop at vertex {u} (edge {e})")
            if not (0 <= u < n and 0 <= v < n):
                raise EmbeddingError(f"edge {e}=({u},{v}) out of range")
            expected[u].append(2 * e)
            expected[v].append(2 * e + 1)
        if len(rotation) != n:
            raise EmbeddingError("rotation must list every vertex")
        for v in range(n):
            if sorted(rotation[v]) != sorted(expected[v]):
                raise EmbeddingError(f"rotation at vertex {v} does not match its darts")
        self.n, self.edge_list, self.rotation = n, tuple(edge_list), tuple(rotation)
        self.m = len(edge_list)
        self.sigma = {}
        for darts in self.rotation:
            for i, d in enumerate(darts):
                self.sigma[d] = darts[(i + 1) % len(darts)]
        seen, faces = set(), []
        for start in range(2 * self.m):
            if start in seen:
                continue
            walk, d = [], start
            while d not in seen:
                seen.add(d)
                walk.append(d)
                d = self.sigma[d ^ 1]
            faces.append(tuple(walk))
        self.faces = tuple(faces)

    def dart_tail(self, d):
        return self.edge_list[d // 2][d & 1]

    def face_of_dart(self):
        return {d: i for i, walk in enumerate(self.faces) for d in walk}

    @property
    def euler_genus(self):
        reached = {0} if self.n else set()
        stack = list(reached)
        while stack:
            for d in self.rotation[stack.pop()]:
                w = self.dart_tail(d ^ 1)
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if not self.n or len(reached) != self.n:
            raise EmbeddingError("embedded graph must be connected")
        if self.m == 0:
            return 0
        g = 2 - (self.n - self.m + len(self.faces))
        if g < 0:
            raise EmbeddingError(f"negative genus {g}: invalid rotation system")
        return g


def _dict_rotation_from_faces(n, edge_list, face_walks):
    phi = {}
    for walk in face_walks:
        for i, d in enumerate(walk):
            phi[d] = walk[(i + 1) % len(walk)]
    if len(phi) != 2 * len(edge_list):
        raise EmbeddingError("face walks do not cover every dart exactly once")
    sigma = {d: phi[d ^ 1] for d in phi}
    darts_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edge_list):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    rotation = []
    for v in range(n):
        if not darts_at[v]:
            rotation.append(())
            continue
        start = min(darts_at[v])
        cyc = [start]
        d = sigma[start]
        while d != start:
            cyc.append(d)
            d = sigma[d]
        if len(cyc) != len(darts_at[v]):
            raise EmbeddingError(f"face walks induce a disconnected rotation at vertex {v}")
        rotation.append(tuple(cyc))
    return DictEmbedding(n, edge_list, rotation)


def _dict_delete_edge(eg, edge_id):
    kept = [e for e in range(eg.m) if e != edge_id]
    emap = {e: i for i, e in enumerate(kept)}
    rotation = tuple(
        tuple(2 * emap[d // 2] + (d & 1) for d in darts if d // 2 != edge_id)
        for darts in eg.rotation
    )
    return DictEmbedding(eg.n, tuple(eg.edge_list[e] for e in kept), rotation)


def _dict_drop_bigons(eg):
    """Oracle: delete the larger edge of the first bigon, rebuild, repeat."""
    while True:
        bigon = next((walk for walk in eg.faces if len(walk) == 2), None)
        if bigon is None:
            return eg
        e1, e2 = bigon[0] // 2, bigon[1] // 2
        if e1 == e2:
            raise EmbeddingError("degenerate face bounded by a single edge")
        eg = _dict_delete_edge(eg, max(e1, e2))


def _dict_triangulate(eg):
    if eg.n < 3:
        raise EmbeddingError("triangulation needs at least 3 vertices")
    eg = _dict_drop_bigons(eg)
    if all(len(walk) == 3 for walk in eg.faces):
        return eg
    edge_list = list(eg.edge_list)
    new_walks = []
    for walk in eg.faces:
        k = len(walk)
        verts = [eg.dart_tail(d) for d in walk]
        if k == 3:
            new_walks.append(list(walk))
            continue
        if k < 3:
            raise EmbeddingError(
                f"face of length {k} cannot be triangulated without new vertices"
            )
        corner = None
        for r in sorted(range(k), key=lambda i: (verts[i], i)):
            if all(verts[(r + j) % k] != verts[r] for j in range(2, k - 1)):
                corner = r
                break
        if corner is None:
            raise EmbeddingError("no loop-free fan corner on face walk")
        rot_walk = [walk[(corner + j) % k] for j in range(k)]
        rot_verts = [verts[(corner + j) % k] for j in range(k)]
        apex = rot_verts[0]
        chord_fwd = {}
        for j in range(2, k - 1):
            chord_fwd[j] = 2 * len(edge_list)
            edge_list.append((apex, rot_verts[j]))
        new_walks.append([rot_walk[0], rot_walk[1], chord_fwd[2] ^ 1])
        for j in range(2, k - 2):
            new_walks.append([chord_fwd[j], rot_walk[j], chord_fwd[j + 1] ^ 1])
        new_walks.append([chord_fwd[k - 2], rot_walk[k - 2], rot_walk[k - 1]])
    out = _dict_rotation_from_faces(eg.n, edge_list, new_walks)
    if out.euler_genus != eg.euler_genus:
        raise EmbeddingError("triangulation changed the genus")
    return out


def _dict_tree_cotree(eg, roots):
    """Oracle: (parent, depth, primal tree edges, dual parent, dual tree
    edges, X) from dict-based searches over sorted (neighbour, edge id)
    lists; the least root is its own parent."""
    adj = [[] for _ in range(eg.n)]
    for e, (u, v) in enumerate(eg.edge_list):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for lst in adj:
        lst.sort()
    roots = sorted(set(roots))
    depth, parent, tree_edges = {r: 0 for r in roots}, {r: None for r in roots}, set()
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for w, e in adj[v]:
            if w not in depth:
                depth[w], parent[w] = depth[v] + 1, v
                tree_edges.add(e)
                queue.append(w)
    root = roots[0]
    star = {}
    for e, (u, v) in enumerate(eg.edge_list):
        other = v if u == root else u if v == root else None
        if other in roots:
            star.setdefault(other, e)
    if len(star) != len(roots) - 1:
        raise GraphInputError("root set is not a clique")
    tree_edges |= set(star.values())
    parent.update(dict.fromkeys(star, root))
    parent[root] = root
    face_of = eg.face_of_dart()
    dual_adj = {f: [] for f in range(len(eg.faces))}
    for e in range(eg.m):
        f1, f2 = face_of[2 * e], face_of[2 * e + 1]
        if e not in tree_edges and f1 != f2:
            dual_adj[f1].append((f2, e))
            dual_adj[f2].append((f1, e))
    for lst in dual_adj.values():
        lst.sort()
    root_face = min(face_of[d] for d in eg.rotation[root])
    seen, dual_tree, queue = {root_face}, set(), deque([root_face])
    dual_parent = [-1] * len(eg.faces)
    while queue:
        f = queue.popleft()
        for f2, e in dual_adj[f]:
            if f2 not in seen:
                seen.add(f2)
                dual_tree.add(e)
                dual_parent[f2] = f
                queue.append(f2)
    extra = tuple(e for e in range(eg.m) if e not in tree_edges and e not in dual_tree)
    return (
        [parent[v] for v in range(eg.n)],
        [depth[v] for v in range(eg.n)],
        frozenset(tree_edges),
        dual_parent,
        frozenset(dual_tree),
        extra,
    )


def _outcome(build):
    """The value ``build`` returns, or the class and message it raises."""
    try:
        return build()
    except (EmbeddingError, GraphInputError) as exc:
        return type(exc), str(exc)


def _flat_core(eg):
    """Every derived value of the flat core, its lists read as dicts."""
    return (
        eg.edge_list,
        eg.rotation,
        dict(enumerate(eg.sigma)),
        eg.faces,
        dict(enumerate(eg.face_of)),
        _outcome(lambda: eg.euler_genus),
    )


def _dict_core(ref):
    return (
        ref.edge_list,
        ref.rotation,
        ref.sigma,
        ref.faces,
        ref.face_of_dart(),
        _outcome(lambda: ref.euler_genus),
    )


def _assert_core_matches_oracle(eg):
    assert _flat_core(eg) == _dict_core(DictEmbedding(eg.n, eg.edge_list, eg.rotation))


triangulated_tori = st.builds(
    lambda p, q: triangulate(toroidal_grid(p, q)), st.integers(3, 9), st.integers(3, 9)
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedded_graphs, triangulated_tori))
def test_flat_core_matches_dict_oracle(eg):
    _assert_core_matches_oracle(eg)


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedded_graphs, spanning_subgraphs().map(embed_planar)), st.data())
def test_flat_core_matches_dict_oracle_on_shuffled_rotations(eg, data):
    """Each vertex's rotation in a random order: a valid rotation system,
    mostly of higher genus and with longer faces."""
    rnd = data.draw(st.randoms(use_true_random=False))
    rotation = tuple(tuple(rnd.sample(darts, len(darts))) for darts in eg.rotation)
    _assert_core_matches_oracle(EmbeddedGraph(eg.n, eg.edge_list, rotation))


@st.composite
def mutants(draw, eg):
    """A rotation system one random change away from ``eg``'s."""
    n, edges, rotation = eg.n, list(eg.edge_list), [list(r) for r in eg.rotation]
    m2 = 2 * len(edges)
    v = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(
        ["drop", "repeat", "move", "swap", "range", "negative", "loop", "edge", "lines", "extra"]
    ))
    if kind == "drop" and rotation[v]:
        rotation[v].pop(draw(st.integers(0, len(rotation[v]) - 1)))
    elif kind == "repeat" and rotation[v]:
        i = draw(st.integers(0, len(rotation[v]) - 1))
        rotation[v][i] = rotation[v][draw(st.integers(0, len(rotation[v]) - 1))]
    elif kind in ("move", "swap"):
        w = draw(st.integers(0, n - 1))
        if rotation[v] and rotation[w]:
            i = draw(st.integers(0, len(rotation[v]) - 1))
            j = draw(st.integers(0, len(rotation[w]) - 1))
            if kind == "move":
                rotation[w].insert(j, rotation[v].pop(i))
            else:
                rotation[v][i], rotation[w][j] = rotation[w][j], rotation[v][i]
    elif kind == "range":
        rotation[v].append(m2 + draw(st.integers(0, 3)))
    elif kind == "negative":
        rotation[v].append(-draw(st.integers(1, 3)))
    elif kind == "loop":
        e = draw(st.integers(0, len(edges) - 1))
        edges[e] = (edges[e][0], edges[e][0])
    elif kind == "edge":
        e = draw(st.integers(0, len(edges) - 1))
        edges[e] = (edges[e][0], draw(st.sampled_from([n, n + 2, -1, -3])))
    elif kind == "lines":
        rotation = rotation[:-1] if draw(st.booleans()) else rotation + [[]]
    elif kind == "extra":
        edges.append((v, (v + 1) % n))
    return n, tuple(edges), tuple(map(tuple, rotation))


@settings(max_examples=200, deadline=None)
@given(st.one_of(embedded_graphs, spanning_subgraphs().map(embed_planar)), st.data())
def test_flat_core_errors_match_dict_oracle(eg, data):
    n, edges, rotation = data.draw(mutants(eg))
    flat = _outcome(lambda: _flat_core(EmbeddedGraph(n, edges, rotation)))
    oracle = _outcome(lambda: _dict_core(DictEmbedding(n, edges, rotation)))
    assert flat == oracle


@pytest.mark.parametrize("edges, rotation, message", [
    # dart 0 leaves vertex -1 and no vertex lists it; vertex 0 lists
    # dart 1 twice, so there are 2m entries, none negative
    (((-1, 0),), ((1, 1), ()), "edge 0=(-1,0) out of range"),
    (((0, 1), (1, 1)), ((0,), (1, 2, 3)), "loop at vertex 1 (edge 1)"),
    (((0, 1),), ((0,), (1,), ()), "rotation must list every vertex"),
])
def test_embedded_graph_names_the_first_fault_like_the_oracle(edges, rotation, message):
    expected = (EmbeddingError, message)
    assert _outcome(lambda: EmbeddedGraph(2, edges, rotation)) == expected
    assert _outcome(lambda: DictEmbedding(2, edges, rotation)) == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(embedded_graphs, spanning_subgraphs().map(embed_planar)))
def test_triangulate_matches_dict_oracle(eg):
    """Same edges, rotations and faces as the dict-based triangulation,
    and the faces it hands over are those of its own rotation."""
    tri = _outcome(lambda: triangulate(eg))
    ref = _outcome(lambda: _dict_triangulate(DictEmbedding(eg.n, eg.edge_list, eg.rotation)))
    if isinstance(tri, tuple):  # fewer than 3 vertices
        assert tri == ref
        return
    assert (tri.edge_list, tri.rotation, tri.faces) == (ref.edge_list, ref.rotation, ref.faces)
    assert tri.euler_genus == ref.euler_genus == eg.euler_genus
    _assert_core_matches_oracle(tri)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.builds(random_planar_triangulation, st.integers(3, 120), st.integers(0, 10**6)),
        triangulated_tori,
    )
)
def test_rotation_from_faces_hands_over_its_own_faces(eg):
    walks = [list(w[1:] + w[:1]) for w in reversed(eg.faces)]  # unsorted, unrotated
    out = _rotation_from_faces(eg.n, list(eg.edge_list), walks)
    ref = _dict_rotation_from_faces(eg.n, list(eg.edge_list), walks)
    assert (out.rotation, out.faces) == (ref.rotation, ref.faces) == (eg.rotation, eg.faces)
    _assert_core_matches_oracle(out)


@settings(max_examples=40, deadline=None)
@given(st.one_of(embedded_graphs, triangulated_tori), st.data())
def test_tree_cotree_matches_dict_oracle(eg, data):
    tri = triangulate(eg)
    g = tri.to_graph()
    u, v = data.draw(st.sampled_from(sorted(g.edges)))
    common = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
    roots = data.draw(st.sampled_from([[u], [u, v]] + [[u, v, w] for w in common[:1]]))
    tc = tree_cotree(tri, roots)
    ref = _dict_tree_cotree(DictEmbedding(tri.n, tri.edge_list, tri.rotation), roots)
    got = (
        tc.parent, tc.depth, tc.primal_tree_edges, tc.dual_parent, tc.dual_tree_edges,
        tc.extra_edges,
    )
    assert got == ref


@st.composite
def with_parallel_runs(draw):
    """An embedded graph with runs of 2-4 parallel copies of some edges.
    The copies of edge uv sit next to it at u and at v, on either side,
    so most runs bound bigons and some twist through other faces; the
    edge ids are then permuted."""
    eg = draw(st.one_of(
        st.builds(random_planar_triangulation, st.integers(3, 40), st.integers(0, 10**6)),
        st.builds(toroidal_grid, st.integers(3, 5), st.integers(3, 5)),
        spanning_subgraphs().map(embed_planar),
    ))
    edges = list(eg.edge_list)
    rotation = [list(r) for r in eg.rotation]
    for e in draw(st.sets(st.integers(0, len(edges) - 1), max_size=8)):
        for _ in range(draw(st.integers(1, 3))):
            c = len(edges)
            edges.append(edges[e])
            for d, dc in ((2 * e, 2 * c), (2 * e + 1, 2 * c + 1)):
                at = rotation[edges[e][d & 1]]
                at.insert(at.index(d) + draw(st.integers(0, 1)), dc)
    perm = draw(st.permutations(range(len(edges))))
    new_edges = [None] * len(edges)
    for old, new in enumerate(perm):
        new_edges[new] = edges[old]
    rotation = tuple(tuple(2 * perm[d >> 1] + (d & 1) for d in r) for r in rotation)
    return EmbeddedGraph(eg.n, tuple(new_edges), rotation)


def _embedding(eg):
    return eg.edge_list, eg.rotation, eg.faces


@settings(max_examples=150, deadline=None)
@given(with_parallel_runs())
def test_drop_bigons_matches_the_loop_it_replaced(eg):
    ref = DictEmbedding(eg.n, eg.edge_list, eg.rotation)
    assert _outcome(lambda: _embedding(_drop_bigons(eg))) == _outcome(
        lambda: _embedding(_dict_drop_bigons(ref))
    )
    assert _outcome(lambda: _embedding(triangulate(eg))) == _outcome(
        lambda: _embedding(_dict_triangulate(ref))
    )


def _doubled_cycle(n):
    """The n-cycle with every edge doubled: n bigons and two n-faces.
    Edge i + n copies edge i = (i, i + 1)."""
    edges = [(i, (i + 1) % n) for i in range(n)] * 2
    rotation = tuple(
        (2 * (n + i), 2 * i, 2 * ((i - 1) % n) + 1, 2 * (n + (i - 1) % n) + 1)
        for i in range(n)
    )
    return EmbeddedGraph(n, tuple(edges), rotation)


@pytest.mark.parametrize("n", [3, 4, 50, 200])
def test_doubled_cycle_triangulates_like_the_oracle(n):
    eg = _doubled_cycle(n)
    assert sorted(map(len, eg.faces)) == [2] * n + [n, n]
    tri = triangulate(eg)
    ref = _dict_triangulate(DictEmbedding(eg.n, eg.edge_list, eg.rotation))
    assert _embedding(tri) == _embedding(ref)


def test_doubled_cycle_builds_one_embedding_per_step(monkeypatch):
    # the bigon loop rebuilt the whole embedding once per bigon; now the
    # bigons are dropped in one embedding and the fan builds one more
    built = []
    init = EmbeddedGraph.__post_init__
    monkeypatch.setattr(EmbeddedGraph, "__post_init__", lambda eg: built.append(init(eg)))
    eg = _doubled_cycle(800)
    built.clear()
    tri = triangulate(eg)
    assert len(built) == 2
    assert all(len(f) == 3 for f in tri.faces) and tri.m == 800 + 2 * (800 - 3)


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_bigon_bounded_by_one_edge_raises_like_the_oracle(copies):
    # a triangle and, apart from it, edge 34 in `copies` parallel copies:
    # dropping the copies leaves one edge whose two sides form one face
    edges = ((0, 1), (1, 2), (2, 0)) + ((3, 4),) * copies
    rotation = ((0, 5), (1, 2), (3, 4), tuple(range(6, 6 + 2 * copies, 2)),
                tuple(range(7 + 2 * copies - 2, 6, -2)))
    eg = EmbeddedGraph(5, edges, rotation)
    expected = (EmbeddingError, "degenerate face bounded by a single edge")
    assert _outcome(lambda: triangulate(eg)) == expected
    assert _outcome(lambda: _dict_triangulate(DictEmbedding(5, edges, rotation))) == expected


def _stepwise_lr_rotation(g: Graph) -> Optional[list[list[int]]]:
    """Oracle for ``_lr_rotation``: Brandes' left-right planarity test
    ported from networkx's ``LRPlanarity`` one helper per method, with
    oriented edges numbered in orientation order and a half-edge list
    translated to darts at the end.

    Returns each vertex's darts in clockwise order, starting at its
    leftmost neighbour, or ``None`` when ``g`` is not planar.  Edge
    ``k`` is ``g.sorted_edges[k]``, with darts as in ``EmbeddedGraph``,
    and neighbours are scanned in the ascending order of
    ``g.adjacency``: the adjacency networkx's ``LRPlanarity`` copies
    from a graph built from the sorted edge list.  This is
    ``LRPlanarity`` (iterative variant) step by step on flat int lists,
    so it returns the rotations ``check_planarity`` returns for that
    graph: the same DFS orientation, stable sorts by nesting depth
    before the test and after ``sign``, the same half-edge insertion
    rules and the same leftmost neighbour at every vertex.  Oriented
    edges are ids in orientation order (``tail``/``head``/``und``); a
    conflict pair is a list ``[left.low, left.high, right.low,
    right.high]`` with -1 for "no edge", and stack bottoms are compared
    by identity.
    """
    n = g.n
    if n > 2 and g.m > 3 * n - 6:
        return None
    adj = g.adjacency
    adj_k: list[list[int]] = [[] for _ in range(n)]  # undirected edge ids
    for k, (u, v) in enumerate(g.sorted_edges):
        adj_k[u].append(k)
        adj_k[v].append(k)

    # Orientation DFS: heights, lowpoints and nesting depths.
    height = [-1] * n
    parent_edge = [-1] * n
    tail: list[int] = []
    head: list[int] = []
    und: list[int] = []  # undirected id of each oriented edge
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges by tail
    oriented = bytearray(g.m)
    ind = [0] * n
    resume = [-1] * n  # tree edge to finish when its tail is popped again
    roots: list[int] = []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            nbrs, ks = adj[v], adj_k[v]
            i, d = ind[v], resume[v]
            while i < len(nbrs):
                if d < 0:
                    if oriented[ks[i]]:
                        i += 1
                        continue
                    oriented[ks[i]] = 1
                    w = nbrs[i]
                    d = len(head)
                    tail.append(v)
                    head.append(w)
                    und.append(ks[i])
                    out[v].append(d)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    nesting.append(0)
                    if height[w] < 0:  # tree edge
                        parent_edge[w] = d
                        height[w] = hv + 1
                        ind[v], resume[v] = i, d
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[d] = height[w]  # back edge
                lp = lowpt[d]
                nesting[d] = 2 * lp + (lowpt2[d] < hv)
                if e >= 0:
                    le = lowpt[e]
                    if lp < le:
                        lowpt2[e] = min(le, lowpt2[d])
                        lowpt[e] = lp
                    elif lp > le:
                        lowpt2[e] = min(lowpt2[e], lp)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[d])
                i += 1
                d = -1

    # Testing: build the stack of conflict pairs and the side references.
    m = len(head)
    ordered = [sorted(o, key=nesting.__getitem__) for o in out]
    ref = [-1] * (m + 1)  # ref[-1] absorbs networkx's writes to ref[None]
    side = [1] * m
    lowpt_edge = [-1] * m
    stack_bottom: list[Optional[list[int]]] = [None] * m
    S: list[list[int]] = []

    def conflicting(low: int, high: int, b: int) -> bool:
        return (low >= 0 or high >= 0) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [-1, -1, -1, -1]
        bottom = stack_bottom[ei]
        # merge return edges of ei into P.right
        while True:
            Q = S.pop()
            if Q[0] >= 0 or Q[1] >= 0:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] >= 0 or Q[1] >= 0:
                return False
            if lowpt[Q[2]] > lowpt[e]:  # merge
                if P[2] < 0 and P[3] < 0:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] >= 0:
                P[2] = Q[2]
            if P[0] < 0 and P[1] < 0:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] >= 0 or P[1] >= 0 or P[2] >= 0 or P[3] >= 0:
            S.append(P)
        return True

    def lowest(P: list[int]) -> int:
        if P[0] < 0 and P[1] < 0:
            return lowpt[P[2]]
        if P[2] < 0 and P[3] < 0:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        # drop entire conflict pairs returning to u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] >= 0:
                side[P[0]] = -1
        if S:  # one more conflict pair to consider
            P = S.pop()
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
            S.append(P)
        # side of e is side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * n
    resume = [-1] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            adjv = ordered[v]
            i, resuming = ind[v], resume[v] >= 0
            while i < len(adjv):
                ei = adjv[i]
                if not resuming:
                    stack_bottom[ei] = S[-1] if S else None
                    w = head[ei]
                    if parent_edge[w] == ei:  # tree edge
                        ind[v], resume[v] = i, ei
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([-1, -1, ei, ei])
                if lowpt[ei] < hv:  # integrate new return edges
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
                resuming = False
            else:
                if e >= 0:
                    remove_back_edges(e)

    # Resolve relative sides (``sign``) in networkx's DiGraph edge order.
    for v in range(n):
        for d in out[v]:
            chain = []
            x = d
            while ref[x] >= 0:
                chain.append(x)
                ref[x], x = -1, ref[x]
            s = side[x]
            for y in reversed(chain):
                s = side[y] = side[y] * s
            nesting[d] *= s
    ordered = [sorted(o, key=nesting.__getitem__) for o in out]

    # Half-edge 2d sits at tail[d], 2d+1 at head[d]; cw/ccw link each
    # vertex's half-edges into a cycle; leftmost[v] starts the rotation.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    leftmost = [-1] * n

    def insert_cw_of(ref_h: int, h: int) -> None:
        nxt = cw[ref_h]
        cw[h], ccw[h] = nxt, ref_h
        ccw[nxt] = cw[ref_h] = h

    def insert_ccw_of(ref_h: int, h: int) -> None:
        prv = ccw[ref_h]
        cw[h], ccw[h] = ref_h, prv
        cw[prv] = ccw[ref_h] = h

    for v in range(n):
        prev = -1
        for d in ordered[v]:
            h = 2 * d
            if prev < 0:
                cw[h] = ccw[h] = leftmost[v] = h
            else:
                insert_cw_of(prev, h)
            prev = h

    # Complete the embedding (``dfs_embedding``).
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            adjv = ordered[v]
            i = ind[v]
            while i < len(adjv):
                ei = adjv[i]
                i += 1
                w = head[ei]
                h = 2 * ei + 1
                if parent_edge[w] == ei:  # tree edge: v becomes w's leftmost
                    if leftmost[w] < 0:
                        cw[h] = ccw[h] = h
                    else:
                        insert_ccw_of(leftmost[w], h)
                    leftmost[w] = h
                    left_ref[v] = right_ref[v] = 2 * ei
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:
                    insert_cw_of(right_ref[w], h)
                else:
                    if left_ref[w] == leftmost[w]:
                        leftmost[w] = h
                    insert_ccw_of(left_ref[w], h)
                    left_ref[w] = h

    rotation: list[list[int]] = []
    for v in range(n):
        darts = []
        h0 = h = leftmost[v]
        while h >= 0:
            d = h >> 1
            w = tail[d] if h & 1 else head[d]
            darts.append(2 * und[d] + (v > w))
            h = cw[h]
            if h == h0:
                break
        rotation.append(darts)
    return rotation


@st.composite
def gnm_graphs(draw):
    """G(n, m) for any m, most of them non-planar once m is large."""
    n = draw(st.integers(1, 25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rnd = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, rnd.sample(pairs, draw(st.integers(0, len(pairs)))))


@st.composite
def disconnected_graphs(draw):
    """Two to four graphs side by side, their vertices interleaved."""
    parts = draw(st.lists(st.one_of(spanning_subgraphs(), sparse_gnm(), outerplanar_graphs()),
                          min_size=2, max_size=4))
    n = sum(p.n for p in parts)
    perm = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(perm)
    edges, base = [], 0
    for p in parts:
        edges += [(perm[base + u], perm[base + v]) for u, v in p.edges]
        base += p.n
    return Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(triangulations(), spanning_subgraphs(), outerplanar_graphs(), sparse_gnm(),
                 gnm_graphs(), kuratowski_glued(), disconnected_graphs(),
                 st.builds(lambda p, q: toroidal_grid(p, q).to_graph(),
                           st.integers(3, 9), st.integers(3, 9))))
def test_lr_rotation_matches_the_stepwise_port(g):
    assert _lr_rotation(g) == _stepwise_lr_rotation(g)


def test_lr_rotation_matches_the_stepwise_port_on_large_triangulations():
    for n, seed in ((1200, 1), (2500, 7)):
        g = random_planar_triangulation(n, seed).to_graph()
        assert _lr_rotation(g) == _stepwise_lr_rotation(g)
