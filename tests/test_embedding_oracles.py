"""The flat-list embedding core against the dict-based core it replaced.

``DictEmbedding`` derives ``sigma``, the faces and the Euler genus with
dicts and sets, and the functions below it are the earlier
``_rotation_from_faces``, the bigon loop that rebuilt the embedding once
per bigon, ``triangulate`` and ``tree_cotree``, kept here as oracles:
the flat core must return the same values in the same order and raise
the same errors.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    _drop_bigons,
    _rotation_from_faces,
    embed_planar,
    tree_cotree,
    triangulate,
)
from layersep.generators import random_planar_triangulation, toroidal_grid
from layersep.graphs import GraphInputError
from tests.conftest import embedded_graphs
from tests.test_embedding import spanning_subgraphs


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
        edges[e] = (edges[e][0], n + draw(st.integers(0, 2)))
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
