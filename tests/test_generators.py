import hashlib

import pytest

from layersep.decomposition import exact_treewidth, validate_tree_decomposition
from layersep.generators import (
    Lcg,
    gen,
    grid_graph,
    grid_plus_apex,
    random_chordal_with_decomposition,
    random_planar_triangulation,
    random_tree,
    section2_family,
    toroidal_grid,
    v8_graph,
)
from layersep.embedding import format_rotation_system
from layersep.graphs import GraphInputError, validate_layering


def test_lcg_deterministic():
    a, b = Lcg(7), Lcg(7)
    assert [a.randrange(100) for _ in range(20)] == [
        b.randrange(100) for _ in range(20)
    ]
    assert Lcg(7).randrange(100) != Lcg(8).randrange(100) or True


def test_random_generators_deterministic():
    assert random_tree(20, 3).edges == random_tree(20, 3).edges
    t1 = random_planar_triangulation(20, 4)
    t2 = random_planar_triangulation(20, 4)
    assert t1.edge_list == t2.edge_list
    g1, _ = random_chordal_with_decomposition(25, 5)
    g2, _ = random_chordal_with_decomposition(25, 5)
    assert g1 == g2


def test_grid_fixture_treewidth():
    fx = gen("grid", 3)
    assert exact_treewidth(fx.graph) == fx.expected["treewidth"] == 3


def test_grid_plus_apex_dominates_grid():
    g = grid_plus_apex(3, 3)
    assert g.n == 10
    assert exact_treewidth(g) >= exact_treewidth(grid_graph(3, 3))


def test_section2_structure():
    for k in (2, 3):
        p = 8
        g, layering, ld = section2_family(p, k)
        assert g.n == p * p
        assert validate_layering(g, layering).ok
        assert validate_tree_decomposition(g, ld.decomposition).ok
        assert ld.layered_width == k
        # the edge count sits in the documented band
        n, m = g.n, len(g.edges)
        assert m <= (3 * k - 1) * n
        # boundary deficit (2k-1)p + k(k-1)(3p-2)/2 <= 5k*sqrt(n) for k <= 3
        assert m == (3 * k - 2) * n - (2 * k - 1) * p - k * (k - 1) * (3 * p - 2) // 2
        assert m >= (3 * k - 2) * n - 5 * k * p


def test_section2_rejects_bad_sizes():
    with pytest.raises(GraphInputError):
        section2_family(2, 3)


def test_triangulation_counts():
    eg = random_planar_triangulation(30, 0)
    assert len(eg.edge_list) == 3 * 30 - 6
    assert len(eg.faces) == 2 * 30 - 4


def test_toroidal_fixture():
    fx = gen("toroidal_grid", 4)
    assert fx.embedded is not None
    assert fx.embedded.euler_genus == fx.expected["genus"] == 2
    assert fx.graph.n == 16


def test_chordal_fixture_bags():
    fx = gen("random_chordal", 30, seed=2)
    assert fx.expected["max_bag"] <= 4


def test_v8_shape():
    g = v8_graph()
    assert g.n == 8
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert gen("v8", 0).expected["good"] == 3


def test_gen_unknown_family():
    with pytest.raises(GraphInputError):
        gen("mystery", 5)


def test_gen_seed_recorded():
    fx = gen("random_tree", 10, seed=42)
    assert fx.seed == 42
    assert fx.name == "random_tree"


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: toroidal_grid(3, 3), "9f0170d4937fecff"),
        (lambda: toroidal_grid(3, 5), "2c8d50c44d7b255b"),
        (lambda: toroidal_grid(12, 12), "06554cabfecc8d5c"),
        (lambda: toroidal_grid(60, 60), "75a2dac00612c3eb"),
        (lambda: random_planar_triangulation(30, 1), "c09df9e1bbde6620"),
        (lambda: random_planar_triangulation(300, 1), "251be081daf7a0f9"),
        (lambda: random_planar_triangulation(1200, 1), "720f86321e2b6280"),
    ],
)
def test_generator_rotation_texts_pinned(build, digest):
    """The rotation-system texts of the embedded generators, header genus
    and rotation starts included."""
    text = format_rotation_system(build())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
