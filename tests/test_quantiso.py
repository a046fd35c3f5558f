"""Tests for planar isomorphism testing and magic unitary validation."""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qgs.graphs import (FiniteGraph, ValidationError, complete_graph,
                        cycle_graph, path_graph)
from qgs.quantiso import (check_correspondence_psi, count_signatures,
                          magic_unitary_verify, planar_iso_test,
                          planar_patterns, pointed_hom_count,
                          pointed_patterns)


def relabel(g, perm):
    return FiniteGraph(g.vertex_count,
                       [(perm[u], perm[v]) for (u, v) in
                        g.undirected_edges()])


def random_connected(rng, n):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        g = FiniteGraph(n, edges)
        if g.is_connected():
            return g


def test_pattern_counts():
    # connected planar graphs per vertex count: 1, 1, 2, 6, 20, 99
    sizes = {}
    for g in planar_patterns(6):
        sizes[g.vertex_count] = sizes.get(g.vertex_count, 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 99}


def test_four_vertex_catalogue_is_every_connected_class():
    # every connected graph on at most 4 vertices is planar
    pats = planar_patterns(4)
    assert len(pats) == 10
    nxg = [nx.Graph(list(g.undirected_edges())) for g in pats]
    for h, g in zip(nxg, pats):
        h.add_nodes_from(range(g.vertex_count))
        assert nx.is_connected(h)
    for a, b in itertools.combinations(nxg, 2):
        assert not nx.is_isomorphic(a, b)


def full_atlas_scan(depth):
    """Reference: the connected planar graphs of the whole atlas."""
    out = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= depth and nx.is_connected(h) and \
                nx.check_planarity(h)[0]:
            out.append((n, sorted(tuple(sorted(e)) for e in h.edges())))
    return out


def test_catalogue_equals_full_atlas_scan():
    for depth in range(1, 8):
        assert [(g.vertex_count, sorted(g.undirected_edges()))
                for g in planar_patterns(depth)] == full_atlas_scan(depth)


@st.composite
def connected_graphs(draw, max_vertices=6):
    """Connected graphs on 1..max_vertices vertices, loops allowed: a
    random spanning tree plus random extra edges and loops."""
    n = draw(st.integers(1, max_vertices))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return FiniteGraph(n, edges)


def pattern_tensor(pattern, g):
    """Reference: the dense 0/1 tensor on V(g)^n whose entry (v_1..v_n)
    is 1 when v respects every edge of the n-vertex pattern."""
    q, n = g.vertex_count, pattern.vertex_count
    adj = np.zeros((q, q), dtype=bool)
    for (u, v) in g.edges:
        adj[u, v] = True
    t = np.ones((q,) * n, dtype=bool)
    for (u, v) in pattern.undirected_edges():
        shape = tuple(q if k in (u, v) else 1 for k in range(n))
        np.logical_and(t, adj.reshape(shape), out=t)
    return t


def reference_pointed_counts(pattern, base, g):
    """Reference: the pointed counts at every vertex of g, the slices of
    the pattern tensor along the basepoint axis."""
    return [int(np.count_nonzero(s))
            for s in np.moveaxis(pattern_tensor(pattern, g), base, 0)]


def reference_signatures(g, depth):
    """Reference for count_signatures from the dense pattern tensors."""
    columns = [reference_pointed_counts(pattern, base, g)
               for pattern, base in pointed_patterns(depth)]
    return {v: tuple(sig) for v, sig in enumerate(zip(*columns))}


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.just(4))
@example(cycle_graph(5), 4)
# depth 6 with loops: on a path, on a triangle, on every vertex
@example(FiniteGraph(5, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 4)]),
         6)
@example(FiniteGraph(4, [(0, 1), (1, 2), (0, 2), (2, 2), (2, 3)]), 6)
@example(FiniteGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]), 6)
# depth 6 with several components, one an isolated vertex or a loop
@example(FiniteGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)]), 6)
@example(FiniteGraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 4), (5, 6)]),
         6)
def test_signatures_match_brute_force(g, depth):
    assert count_signatures(g, depth) == reference_signatures(g, depth)
    for pattern, base in pointed_patterns(depth):
        assert [pointed_hom_count(pattern, base, g, v)
                for v in range(g.vertex_count)] == \
            reference_pointed_counts(pattern, base, g)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_signatures_invariant_under_relabeling(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    sigs = count_signatures(g, 4)
    moved = count_signatures(relabel(g, perm), 4)
    for v in range(g.vertex_count):
        assert moved[perm[v]] == sigs[v]


def test_isomorphic_pair_indistinguishable():
    g = cycle_graph(4)
    h = relabel(g, [2, 0, 3, 1])
    verdict = planar_iso_test(g, h, depth=4)
    assert verdict.indistinguishable
    assert verdict.bijection


def test_degree_distinguished_with_witness():
    verdict = planar_iso_test(cycle_graph(4), path_graph(4), depth=4)
    assert verdict.status == "distinguished"
    w = verdict.witness
    # the witness counts are reproducible from the homomorphism rows
    i = w["orbit1"][0] if w["orbit1"] else None
    j = w["orbit2"][0] if w["orbit2"] else None
    if i is not None:
        assert pointed_hom_count(w["pattern"], w["basepoint"],
                                 cycle_graph(4), i) == w["count1"]
    if j is not None:
        assert pointed_hom_count(w["pattern"], w["basepoint"],
                                 path_graph(4), j) == w["count2"]
    assert w["count1"] != w["count2"]


def test_triangle_distinguished():
    verdict = planar_iso_test(complete_graph(3), path_graph(3), depth=3)
    assert verdict.status == "distinguished"
    # some separating pattern exists and the counts differ as reported
    w = verdict.witness
    c1 = pointed_hom_count(w["pattern"], w["basepoint"],
                           complete_graph(3), w["orbit1"][0])
    c2 = pointed_hom_count(w["pattern"], w["basepoint"],
                           path_graph(3), w["orbit2"][0])
    assert (c1, c2) == (w["count1"], w["count2"])


def test_symmetry_of_verdicts():
    pairs = [(cycle_graph(4), path_graph(4)),
             (complete_graph(3), path_graph(3)),
             (cycle_graph(5), relabel(cycle_graph(5), [4, 2, 0, 3, 1])),
             # equal count vectors, classes of different sizes
             (cycle_graph(7), cycle_graph(14))]
    for a, b in pairs:
        v1 = planar_iso_test(a, b, depth=4)
        v2 = planar_iso_test(b, a, depth=4)
        assert v1.status == v2.status
        if v1.status == "distinguished":
            assert v1.witness["count1"] == v2.witness["count2"]
            assert v1.witness["count2"] == v2.witness["count1"]


def test_monotonicity():
    # once distinguished, deeper searches stay distinguished
    for d in range(2, 6):
        assert planar_iso_test(cycle_graph(4), path_graph(4),
                               depth=d).status == "distinguished"


def test_random_isomorphic_pairs():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(3, 7)
        g = random_connected(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert planar_iso_test(g, h, depth=5).indistinguishable


def test_correspondence_identity_and_isomorphic():
    g = cycle_graph(4)
    rep = check_correspondence_psi(g, g, depth=4)
    assert rep["passed"]
    h = relabel(g, [3, 1, 0, 2])
    rep = check_correspondence_psi(g, h, depth=4)
    assert rep["passed"]
    for entry in rep["arities"].values():
        assert entry["relations_match"]
        assert entry["gram_match"]
        assert entry["rank1"] == entry["rank2"] == entry["joint_rank"]


def test_correspondence_fails_at_class_stage():
    rep = check_correspondence_psi(cycle_graph(4), path_graph(4), depth=4)
    assert not rep["passed"]
    assert "class stage" in rep["reason"]


def automorphism_unitary(g, perm):
    n = g.vertex_count
    return {(i, j): np.array([[1.0 if perm[i] == j else 0.0]])
            for i in range(n) for j in range(n)}


def test_magic_unitary_automorphism():
    g = cycle_graph(4)
    rep = magic_unitary_verify(automorphism_unitary(g, [1, 2, 3, 0]), g, g)
    assert rep["valid"]


def test_magic_unitary_block_sum():
    g = cycle_graph(4)
    u1 = automorphism_unitary(g, [1, 2, 3, 0])
    u2 = automorphism_unitary(g, [3, 0, 1, 2])
    data = {}
    for key in u1:
        a, b = u1[key], u2[key]
        m = np.zeros((2, 2))
        m[0, 0], m[1, 1] = a[0, 0], b[0, 0]
        data[key] = m
    rep = magic_unitary_verify(data, g, g)
    assert rep["valid"]


def test_magic_unitary_violations_reported():
    g = cycle_graph(4)
    data = automorphism_unitary(g, [1, 2, 3, 0])
    data[(0, 0)] = np.array([[1.0]])  # breaks a row sum
    rep = magic_unitary_verify(data, g, g)
    assert not rep["valid"]
    assert any("row sum" in v["relation"] or "column sum" in v["relation"]
               for v in rep["violations"])


def test_magic_unitary_dimension_mismatch():
    g = cycle_graph(4)
    data = automorphism_unitary(g, [1, 2, 3, 0])
    data[(0, 0)] = np.eye(2)
    with pytest.raises(ValidationError):
        magic_unitary_verify(data, g, g)


def test_disconnected_rejected():
    g = FiniteGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        planar_iso_test(g, cycle_graph(4), depth=3)
