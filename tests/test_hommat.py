"""Tests for exact homomorphism matrices and partial traces."""

import random
from fractions import Fraction

import pytest

from qgs import bilabeled as B
from qgs import hommat as H
from qgs import graphs as G
from qgs.graphs import FiniteGraph, cycle_graph, path_graph


def random_blg(rng, max_v=4, max_lab=3, require=None):
    while True:
        nv = rng.randint(1, max_v)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.5]
        x = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
        y = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
        k = B.BiLabeled(FiniteGraph(nv, edges), x, y)
        if require is None or B.classify(k)[require]:
            return k


def random_target(rng, max_v=6):
    nv = rng.randint(1, max_v)
    edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if rng.random() < 0.5]
    return FiniteGraph(nv, edges)


def dense(hm, tgt, n, m):
    rows = H.all_tuples_window(tgt.vertex_count, n).tuples
    cols = H.all_tuples_window(tgt.vertex_count, m).tuples
    return {i: {j: hm.entry(i, j) for j in cols} for i in rows}


def test_degree_gadget_on_c4():
    k = B.BiLabeled(FiniteGraph(2, [(0, 1)]), (0,), (0,))
    hm = H.hom_matrix(k, cycle_graph(4))
    for i in range(4):
        for j in range(4):
            assert hm.entry((i,), (j,)) == (2 if i == j else 0)


def test_triangle_on_c5_zero():
    tri = B.BiLabeled(FiniteGraph(3, [(0, 1), (1, 2), (0, 2)]), (0,), (0,))
    hm = H.hom_matrix(tri, cycle_graph(5))
    assert hm.entries == {}


def test_loop_in_k_needs_loop_in_target():
    k = B.BiLabeled(FiniteGraph(1, [(0, 0)]), (0,), (0,))
    assert H.hom_matrix(k, cycle_graph(4)).entries == {}
    loopy = FiniteGraph(2, [(0, 0), (0, 1)])
    hm = H.hom_matrix(k, loopy)
    assert hm.entry((0,), (0,)) == 1 and hm.entry((1,), (1,)) == 0


def test_functoriality_random_cases():
    rng = random.Random(42)
    done = 0
    while done < 120:
        tgt = random_target(rng, max_v=5)
        k1 = random_blg(rng, max_v=3, max_lab=2)
        k2 = random_blg(rng, max_v=3, max_lab=2)
        if k1.m != k2.n:
            continue
        t1 = dense(H.hom_matrix(k1, tgt), tgt, k1.n, k1.m)
        t2 = dense(H.hom_matrix(k2, tgt), tgt, k2.n, k2.m)
        t12 = dense(H.hom_matrix(B.compose(k1, k2), tgt), tgt, k1.n, k2.m)
        mids = H.all_tuples_window(tgt.vertex_count, k1.m).tuples
        for i in t1:
            for j in t12[i]:
                assert t12[i][j] == sum(t1[i][h] * t2[h][j] for h in mids)
        done += 1


def test_tensor_and_transpose_functoriality():
    rng = random.Random(1)
    for _ in range(60):
        tgt = random_target(rng, max_v=4)
        k1 = random_blg(rng, max_v=3, max_lab=2)
        k2 = random_blg(rng, max_v=3, max_lab=2)
        hm1 = H.hom_matrix(k1, tgt)
        hm2 = H.hom_matrix(k2, tgt)
        hm = H.hom_matrix(B.tensor(k1, k2), tgt)
        for (i1, j1), v1 in hm1.entries.items():
            for (i2, j2), v2 in hm2.entries.items():
                assert hm.entry(i1 + i2, j1 + j2) == v1 * v2
        hmt = H.hom_matrix(B.transpose(k1), tgt)
        assert hmt.entries == {(j, i): v for (i, j), v in hm1.entries.items()}


def test_tilde_reverses_indices():
    rng = random.Random(2)
    for _ in range(60):
        tgt = random_target(rng, max_v=4)
        k = random_blg(rng, max_v=3, max_lab=2)
        hm = H.hom_matrix(k, tgt)
        hmt = H.hom_matrix(B.tilde(k), tgt)
        flipped = {(tuple(reversed(j)), tuple(reversed(i))): v
                   for (i, j), v in hm.entries.items()}
        assert hmt.entries == flipped


def test_windowed_matches_full_on_finite():
    rng = random.Random(3)
    for _ in range(30):
        tgt = random_target(rng, max_v=4)
        k = random_blg(rng, max_v=3, max_lab=2, require="in_G2")
        if k.n == 0 and k.m == 0:
            continue
        if not k.graph.is_connected():
            continue
        p = G.finite_provider(tgt)
        # with y = x every label is pinned: the count-only branch
        for blg in (k, B.BiLabeled(k.graph, k.x, k.x)):
            if blg.n + blg.m == 0:
                continue
            rows = H.TupleWindow(blg.n, [
                tuple(map(str, t)) for t in
                H.all_tuples_window(tgt.vertex_count, blg.n).tuples])
            cols = H.TupleWindow(blg.m, [
                tuple(map(str, t)) for t in
                H.all_tuples_window(tgt.vertex_count, blg.m).tuples])
            wm = H.hom_matrix_windowed(blg, p, rows, cols)
            fm = H.hom_matrix(blg, tgt)
            translated = {(tuple(map(str, i)), tuple(map(str, j))): v
                          for (i, j), v in fm.entries.items()}
            assert wm.entries == translated


def test_windowed_degree_on_tree():
    p = G.tree_provider(3)
    k = B.BiLabeled(FiniteGraph(2, [(0, 1)]), (0,), (0,))
    b = G.ball(p, p.base_vertex, 2)
    win = H.TupleWindow(1, [(v,) for v in b.keys])
    hm = H.hom_matrix_windowed(k, p, win, win)
    for v in b.keys:
        assert hm.entry((v,), (v,)) == 3


def test_windowed_path2_endpoint_on_c4():
    p = G.finite_provider(cycle_graph(4))
    k = B.BiLabeled(FiniteGraph(3, [(0, 1), (1, 2)]), (0,), (0,))
    win = H.TupleWindow(1, [(str(v),) for v in range(4)])
    hm = H.hom_matrix_windowed(k, p, win, win)
    for v in range(4):
        assert hm.entry((str(v),), (str(v),)) == 4


def test_windowed_square_diagonal_on_grandparent3():
    p = G.grandparent_graph(3)
    gadget = B.BiLabeled(
        FiniteGraph(4, [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2)]), (0,), (1,))
    b = G.ball(p, p.base_vertex, 1)
    v = p.base_vertex
    w = p.parent_key(v)
    rows = H.TupleWindow(1, [(v,)])
    cols = H.TupleWindow(1, [(w,)])
    hm = H.hom_matrix_windowed(gadget, p, rows, cols)
    assert p.edge_class(v, w) == "positive_short"
    assert hm.entry((v,), (w,)) == 5


def test_partial_trace_adjacency_c4():
    a = B.adjacency_gadget()
    hm = H.hom_matrix(a, cycle_graph(4))
    entries = {((i,), (j,)): v for ((i,), (j,)), v in
               [(key, val) for key, val in hm.entries.items()]}
    left = H.partial_trace(hm.entries, "left")
    assert left == {}  # adjacency has empty diagonal on C4
    # adjacency-as-Mor(1,1): diagonal tuples (i,j) with entry A_ij
    mor = {((i, j), (i, j)): hm.entry((i,), (j,))
           for i in range(4) for j in range(4) if hm.entry((i,), (j,))}
    left = H.partial_trace(mor, "left")
    right = H.partial_trace(mor, "right")
    assert left == {i: 2 for i in range(4)}
    assert right == {i: 2 for i in range(4)}


def test_partial_trace_identity():
    g = path_graph(3)
    mor = {((i, i), (i, i)): 1 for i in range(3)}
    # identity of Mor(0,0)-style diagonal: arity-1 window, value 1 per vertex
    ident = {((i,), (i,)): 1 for i in range(3)}
    assert H.partial_trace(ident, "left") == {i: 1 for i in range(3)}


def test_partial_trace_positive_short_edges_grandparent():
    p = G.grandparent_graph(3)
    b = G.ball(p, p.base_vertex, 3)
    core = [v for v in b.keys if b.distances[v] <= 1]
    mor = {}
    for v in b.keys:
        for w in p.neighbors(v):
            if w in b.index and p.edge_class(v, w) == "positive_short":
                mor[((v, w), (v, w))] = Fraction(1)
    left = H.partial_trace(mor, "left")
    right = H.partial_trace(mor, "right")
    for v in core:
        assert left.get(v, 0) == 1
        assert right.get(v, 0) == 2


def test_partial_trace_bad_side():
    with pytest.raises(G.ValidationError):
        H.partial_trace({}, "up")


def test_export_triplets():
    hm = H.hom_matrix(B.m_gadget(2, 0), path_graph(2))
    trips = H.export_triplets(hm)
    assert trips == [([0, 0], [], 1), ([1, 1], [], 1)]
