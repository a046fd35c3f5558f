"""Tests for finite graphs, providers, balls and classical automorphisms."""

import pytest

from qgs import graphs as G


def test_parse_graph_file():
    g = G.parse_graph_file("finite 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n")
    assert g.vertex_count == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_parse_graph_file_errors():
    with pytest.raises(G.ValidationError):
        G.parse_graph_file("")
    with pytest.raises(G.ValidationError) as exc:
        G.parse_graph_file("finite 3\nedge 0 5")
    assert "line" in str(exc.value) or "range" in str(exc.value)
    with pytest.raises(G.ValidationError) as exc:
        G.parse_graph_file("finite 3\nfoo 0 1")
    assert "line 2" in str(exc.value)


def test_ball_tree_counts():
    p = G.tree_provider(3)
    b0 = G.ball(p, p.base_vertex, 0)
    assert b0.keys == [p.base_vertex]
    b2 = G.ball(p, p.base_vertex, 2)
    assert len(b2.keys) == 10  # 1 + 3 + 6


def test_ball_monotone_consistency():
    p = G.tree_provider(3)
    b2 = G.ball(p, p.base_vertex, 2)
    b3 = G.ball(p, p.base_vertex, 3)
    inner = {k for k, d in b3.distances.items() if d <= 2}
    assert inner == set(b2.keys)


def test_ball_symmetry_of_neighbors():
    p = G.grandparent_graph(3)
    b = G.ball(p, p.base_vertex, 2)
    for v in b.keys:
        for w in p.neighbors(v):
            assert v in p.neighbors(w)


def test_ball_budget():
    p = G.tree_provider(3, vertex_budget=5)
    with pytest.raises(G.BudgetExceeded):
        G.ball(p, p.base_vertex, 3)


def test_distance():
    p = G.cayley_graph(G.integers_group())
    z = p.group
    five = z.key(z.word([z.generator_elements()[0]] * 5))
    assert G.distance(p, p.base_vertex, five, 10) == 5
    assert G.distance(p, p.base_vertex, p.base_vertex, 0) == 0
    assert G.distance(p, p.base_vertex, five, 3) is None


def test_distance_tree_leaves():
    p = G.tree_provider(3)
    assert G.distance(p, "0.0", "1.0", 10) == 4


def test_classical_aut_p3():
    perms, orbits = G.classical_aut(G.path_graph(3))
    assert sorted(map(sorted, orbits)) == [[0, 2], [1]]
    assert len(perms) == 2


def test_classical_aut_c5():
    perms, orbits = G.classical_aut(G.cycle_graph(5))
    assert len(perms) == 10
    assert orbits == [[0, 1, 2, 3, 4]]


def test_classical_aut_star():
    star = G.FiniteGraph(4, [(0, 1), (0, 2), (0, 3)])
    perms, orbits = G.classical_aut(star)
    assert len(perms) == 6
    assert sorted(map(sorted, orbits)) == [[0], [1, 2, 3]]


def test_classical_aut_orbit_invariance():
    g = G.cycle_graph(6)
    perms, orbits = G.classical_aut(g)
    orbit_of = {}
    for i, orb in enumerate(orbits):
        for v in orb:
            orbit_of[v] = i
    for p in perms:
        for v in range(6):
            assert orbit_of[v] == orbit_of[p[v]]


def test_classical_aut_limit():
    with pytest.raises(G.ValidationError):
        G.classical_aut(G.cycle_graph(11))


def test_cayley_z_line():
    p = G.cayley_graph(G.integers_group())
    assert p.degree(p.base_vertex) == 2
    b = G.ball(p, p.base_vertex, 4)
    assert len(b.keys) == 9


def test_cayley_infinite_dihedral_line():
    p = G.cayley_graph(G.free_product_cyclic_group([2, 2]))
    b = G.ball(p, p.base_vertex, 4)
    assert len(b.keys) == 9
    assert all(p.degree(v) == 2 for v in b.keys)


def test_cayley_free_group_tree():
    p = G.cayley_graph(G.free_group(2))
    assert p.degree(p.base_vertex) == 4
    b = G.ball(p, p.base_vertex, 2)
    assert len(b.keys) == 1 + 4 + 12


def test_cayley_finite_group_order():
    spec = G.cyclic_group(6)
    p = G.cayley_graph(spec)
    b = G.ball(p, p.base_vertex, 6)
    assert len(b.keys) == 6


def test_cayley_rejects_identity_generator():
    spec = G.finite_table_group([[0, 1], [1, 0]], generators=[1])
    spec.generators.append(("e", 0))
    with pytest.raises(G.ValidationError):
        G.cayley_graph(spec)


def z4_with_a_non_associative_square():
    # identity 0 and inverses are kept, but (1*1)*2 = 1 and 1*(1*2) = 0
    mul = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul[1][1] = 3
    return mul


def test_finite_table_rejects_a_non_associative_table():
    with pytest.raises(G.ValidationError,
                       match=r"not associative: \(1\*1\)\*2 != 1\*\(1\*2\)"):
        G.finite_table_group(z4_with_a_non_associative_square())


@pytest.mark.parametrize("mul", [[[0, 1], [1, 2]], [[0, 1.0], [1, 0]],
                                 [[0, -1], [1, 0]]])
def test_finite_table_rejects_entries_outside_the_elements(mul):
    with pytest.raises(G.ValidationError, match="integers in 0..1"):
        G.finite_table_group(mul)


def test_free_product_z2_cubed_tree():
    p = G.cayley_graph(G.free_product_cyclic_group([2, 2, 2]))
    assert p.degree(p.base_vertex) == 3
    b = G.ball(p, p.base_vertex, 2)
    assert len(b.keys) == 1 + 3 + 6


def test_grandparent_regularity():
    for d in (3, 4):
        p = G.grandparent_graph(d)
        b = G.ball(p, p.base_vertex, 2)
        for v in b.keys:
            assert p.degree(v) == d * d - d + 2


def test_grandparent_radius1_ball():
    p = G.grandparent_graph(3)
    b = G.ball(p, p.base_vertex, 1)
    assert len(b.keys) == 9


def test_grandparent_edge_classes():
    p = G.grandparent_graph(3)
    b = G.ball(p, p.base_vertex, 2)
    for v in b.keys:
        classes = [p.edge_class(v, w) for w in p.neighbors(v)]
        assert classes.count("positive_short") == 1
        assert classes.count("negative_short") == 2
        assert classes.count("long") == 5  # grandparent + (d-1)^2 grandchildren
        assert None not in classes


def test_product_graph_degree():
    base = G.finite_provider(G.cycle_graph(4))
    fibers = lambda v: G.FiniteGraph(2, [])
    p = G.product_graph(base, fibers)
    b = G.ball(p, p.base_vertex, 4)
    assert len(b.keys) == 8
    assert all(p.degree(v) == 4 for v in b.keys)


def test_product_graph_trivial_fiber():
    base = G.tree_provider(3)
    p = G.product_graph(base, lambda v: G.FiniteGraph(1, []))
    b = G.ball(p, p.base_vertex, 2)
    assert len(b.keys) == 10
    assert all(p.degree(v) == 3 for v in b.keys)


def test_provider_from_spec():
    p = G.provider_from_spec({"type": "grandparent", "d": 3})
    assert p.kind == "grandparent"
    p = G.provider_from_spec(
        {"type": "cayley", "group": {"type": "free", "rank": 2}})
    assert p.degree(p.base_vertex) == 4
    with pytest.raises(G.ValidationError):
        G.provider_from_spec({"type": "nope"})
