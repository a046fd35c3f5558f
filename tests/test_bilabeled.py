"""Tests for the bi-labeled graph calculus."""

import random

import pytest

from qgs import bilabeled as B
from qgs import hommat as H
from qgs.graphs import FiniteGraph, ValidationError, cycle_graph
from qgs.quantiso import SIGNATURE_BUDGET_BYTES


def random_blg(rng, max_v=4, max_lab=3):
    nv = rng.randint(1, max_v)
    edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if rng.random() < 0.5]
    x = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
    y = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
    return B.BiLabeled(FiniteGraph(nv, edges), x, y)


def random_target(rng, max_v=6):
    nv = rng.randint(1, max_v)
    edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if rng.random() < 0.5]
    return FiniteGraph(nv, edges)


def dense(hm, tgt, n, m):
    rows = H.all_tuples_window(tgt.vertex_count, n).tuples
    cols = H.all_tuples_window(tgt.vertex_count, m).tuples
    return [[hm.entry(i, j) for j in cols] for i in rows]


def test_compose_m_gadgets():
    k = B.compose(B.m_gadget(1, 2), B.m_gadget(2, 1))
    assert B.canonical_key(k) == B.canonical_key(B.m_gadget(1, 1))


def test_compose_arity_mismatch():
    with pytest.raises(ValidationError):
        B.compose(B.m_gadget(1, 2), B.m_gadget(1, 1))


def test_compose_adjacency_squared_on_c4():
    a = B.adjacency_gadget()
    aa = B.compose(a, a)
    hm = H.hom_matrix(aa, cycle_graph(4), SIGNATURE_BUDGET_BYTES)
    for i in range(4):
        for j in range(4):
            expected = 2 if (i - j) % 2 == 0 else 0
            assert hm.entry((i,), (j,)) == expected


def test_compose_preserves_connected():
    rng = random.Random(7)
    done = 0
    while done < 500:
        k1 = random_blg(rng)
        k2 = random_blg(rng)
        if k1.m != k2.n:
            continue
        f1, f2 = B.classify(k1), B.classify(k2)
        if not (f1["in_Gc"] and f2["in_Gc"]):
            continue
        assert B.classify(B.compose(k1, k2))["in_Gc"]
        done += 1


def test_compose_key_is_the_composite_equality():
    rng = random.Random(8)
    pairs = []
    while len(pairs) < 300:
        k1 = random_blg(rng, max_v=3, max_lab=2)
        k2 = random_blg(rng, max_v=3, max_lab=2)
        if k1.m == k2.n:
            pairs.append((k1, k2))
    composites = [B.compose(k1, k2) for k1, k2 in pairs]
    keys = [B.compose_key(k1, k2) for k1, k2 in pairs]
    assert keys == [B.equality_key(k) for k in composites]
    for a, ka in zip(composites, keys):
        for b, kb in zip(composites, keys):
            assert (ka == kb) == (a == b)


def test_transpose_involution_and_tilde():
    rng = random.Random(3)
    for _ in range(50):
        k = random_blg(rng)
        assert B.transpose(B.transpose(k)) == k
    m11 = B.m_gadget(1, 1)
    assert B.tilde(m11) == m11


def test_tilde_matches_cup_construction():
    # the reversal built from nested-cup gadgets agrees with the direct one
    rng = random.Random(11)
    for _ in range(20):
        k = random_blg(rng, max_v=3, max_lab=2)
        if k.n < 1 or k.m < 1:
            continue
        n, m = k.n, k.m
        left = B.tensor(B.transpose(B.rainbow_gadget(n)), B.identity_tensor(m))
        mid = B.tensor(B.tensor(B.identity_tensor(n), k), B.identity_tensor(m))
        right = B.tensor(B.identity_tensor(n), B.rainbow_gadget(m))
        built = B.compose(B.compose(left, mid), right)
        assert B.canonical_key(built) == B.canonical_key(B.tilde(k))


def test_relative_tensor_single_vertex():
    one = B.m_gadget(2, 2)  # identity viewed with shared boundary labels
    k = B.relative_tensor(one, one)
    assert k.graph.vertex_count == 1
    assert k.x == (0, 0, 0) and k.y == (0, 0, 0)
    hm = H.hom_matrix(k, cycle_graph(4), SIGNATURE_BUDGET_BYTES)
    for i0 in range(4):
        for i1 in range(4):
            assert hm.entry((i0,) * 3, (i1,) * 3) == (1 if i0 == i1 else 0)


def test_relative_tensor_requires_l_class():
    with pytest.raises(ValidationError):
        B.relative_tensor(B.adjacency_gadget(), B.m_gadget(1, 1))


def path_gadget(length):
    g = FiniteGraph(length + 1, [(i, i + 1) for i in range(length)])
    return B.BiLabeled(g, (0, length), (0, length))


def test_relative_tensor_concatenates_paths():
    p1 = path_gadget(1)
    p2 = B.relative_tensor(p1, p1)
    assert B.canonical_key(p2) == B.canonical_key(
        B.distance_diag_gadget((1, 1)))
    c4 = cycle_graph(4)
    got = H.hom_matrix(p2, c4, SIGNATURE_BUDGET_BYTES)
    # diagonal indicator of walks i0 - i1 - i2
    for i0 in range(4):
        for i1 in range(4):
            for i2 in range(4):
                expected = 1 if (c4.has_edge(i0, i1)
                                 and c4.has_edge(i1, i2)) else 0
                assert got.entry((i0, i1, i2), (i0, i1, i2)) == expected


def test_relative_tensor_matches_categorical_formula():
    # direct gluing equals the M^{1,2}/M^{2,1} sandwich construction
    rng = random.Random(5)
    tgt = cycle_graph(4)
    done = 0
    while done < 20:
        k1 = random_blg(rng, max_v=3, max_lab=3)
        k2 = random_blg(rng, max_v=3, max_lab=3)
        if not (B.classify(k1)["in_L"] and B.classify(k2)["in_L"]):
            continue
        n, m = k1.n - 1, k1.m - 1
        left = B.tensor(B.tensor(B.identity_tensor(n), B.m_gadget(1, 2)),
                        B.identity_tensor(k2.n - 1))
        right = B.tensor(B.tensor(B.identity_tensor(m), B.m_gadget(2, 1)),
                         B.identity_tensor(k2.m - 1))
        built = B.compose(B.compose(left, B.tensor(k1, k2)), right)
        direct = B.relative_tensor(k1, k2)
        assert B.canonical_key(built) == B.canonical_key(direct)
        done += 1


def test_connectedness_preserved_by_relative_tensor():
    rng = random.Random(9)
    done = 0
    while done < 200:
        k1 = random_blg(rng)
        k2 = random_blg(rng)
        if not (B.classify(k1)["in_L"] and B.classify(k2)["in_L"]):
            continue
        assert B.classify(B.relative_tensor(k1, k2))["in_L"]
        done += 1


def test_m20_diagonal_indicator():
    hm = H.hom_matrix(B.m_gadget(2, 0), cycle_graph(4), SIGNATURE_BUDGET_BYTES)
    for i in range(4):
        for j in range(4):
            assert hm.entry((i, j), ()) == (1 if i == j else 0)


def test_distance_diag_gadget_on_c4():
    hm = H.hom_matrix(B.distance_diag_gadget((2,)), cycle_graph(4),
                      SIGNATURE_BUDGET_BYTES)
    # paths of length 2 between i and j in C4
    for i in range(4):
        for j in range(4):
            expected = 2 if (i - j) % 2 == 0 else 0
            assert hm.entry((i, j), (i, j)) == expected


def test_circular_gadget_triangle():
    k3 = FiniteGraph(3, [(0, 1), (1, 2), (0, 2)])
    hm = H.hom_matrix(B.circular_gadget(3), k3, SIGNATURE_BUDGET_BYTES)
    # closed walks of length 3 around the triangle through a fixed base: 2
    for i in range(3):
        vals = [v for (r, c), v in hm.entries.items() if c == (i,)]
        assert sum(vals) == 2


def test_interval_gadget_shape():
    j2 = B.interval_gadget(2)
    assert j2.x == (0, 1) and j2.y == (0, 1)
    assert j2.graph.has_edge(0, 1)


def test_s_gadget_indicator():
    # matrix entry ((i0..i2n), j) is 1 iff i is a palindrome walkable
    # pattern with i0 = i2n = j and middle identifications
    s1 = B.s_gadget(1)
    hm = H.hom_matrix(s1, cycle_graph(4), SIGNATURE_BUDGET_BYTES)
    for i0 in range(4):
        for i1 in range(4):
            for i2 in range(4):
                for j in range(4):
                    expected = 1 if (i0 == i2 == j) else 0
                    assert hm.entry((i0, i1, i2), (j,)) == expected


def test_classify_flags():
    a = B.adjacency_gadget()
    f = B.classify(a)
    assert f["in_Gc"] and f["in_G1"] and f["in_G2"] and not f["in_L"]
    m00 = B.m_gadget(0, 0)
    f = B.classify(m00)
    assert not f["in_G2"]
    two = B.tensor(B.m_gadget(1, 0), B.m_gadget(0, 1))
    f = B.classify(two)
    assert f["in_G2"] and not f["in_G1"]


def test_canonical_associativity():
    rng = random.Random(13)
    done = 0
    while done < 200:
        k1 = random_blg(rng, max_v=3, max_lab=2)
        k2 = random_blg(rng, max_v=3, max_lab=2)
        k3 = random_blg(rng, max_v=3, max_lab=2)
        if k1.m != k2.n or k2.m != k3.n:
            continue
        left = B.compose(B.compose(k1, k2), k3)
        right = B.compose(k1, B.compose(k2, k3))
        assert B.canonical_key(left) == B.canonical_key(right)
        done += 1


def test_canonical_detects_relabeling():
    g1 = FiniteGraph(3, [(0, 1), (1, 2)])
    k1 = B.BiLabeled(g1, (0,), (2,))
    g2 = FiniteGraph(3, [(2, 1), (1, 0)])
    k2 = B.BiLabeled(g2, (2,), (0,))
    assert B.canonical_key(k1) == B.canonical_key(k2)
    k3 = B.BiLabeled(g1, (0,), (1,))
    assert B.canonical_key(k1) != B.canonical_key(k3)


def test_planar_closure_single_vertex():
    items, report = B.generate_planar_closure(max_labels=3, size_budget=1)
    keys = {B.canonical_key(k) for k in items}
    for n in range(4):
        for m in range(4):
            if 0 < n + m <= 3 or (n, m) == (0, 0):
                if n + m == 0:
                    continue
                assert B.canonical_key(B.m_gadget(n, m)) in keys


def test_interval_gadget_composition_word():
    # explicit derivation of the interval gadget from the generators
    a, m = B.adjacency_gadget(), B.m_gadget
    edge_cap = B.compose(B.tensor(a, m(1, 1)), m(2, 0))
    q = B.tensor(B.tensor(m(1, 1), edge_cap), m(1, 1))
    j2 = B.compose(B.tensor(m(1, 2), m(1, 2)), q)
    assert B.canonical_key(j2) == B.canonical_key(B.interval_gadget(2))


def test_planar_closure_contains_edge_generator():
    items, report = B.generate_planar_closure(max_labels=4, size_budget=2)
    keys = {B.canonical_key(k) for k in items}
    assert B.canonical_key(B.adjacency_gadget()) in keys
    for k in items:
        f = B.classify(k)
        if (k.graph.is_connected() and k.n >= 1 and k.m >= 1
                and k.x[0] == k.y[0] and k.x[-1] == k.y[-1]):
            assert f["in_L"]


def test_json_roundtrip():
    k = B.interval_gadget(3)
    doc = B.blg_to_json(k)
    back = B.blg_from_json(doc)
    assert back == k
    doc["n"] = 7
    with pytest.raises(ValidationError):
        B.blg_from_json(doc)
