"""Tests for exact homomorphism matrices and partial traces."""

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgs import bilabeled as B
from qgs import hommat as H
from qgs import graphs as G
from qgs import morspace as M
from qgs.graphs import FiniteGraph, cycle_graph, path_graph
from qgs.quantiso import (SIGNATURE_BUDGET_BYTES, pattern_trie,
                          planar_patterns, pointed_patterns)


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
    hm = H.hom_matrix(k, cycle_graph(4), SIGNATURE_BUDGET_BYTES)
    for i in range(4):
        for j in range(4):
            assert hm.entry((i,), (j,)) == (2 if i == j else 0)


def test_triangle_on_c5_zero():
    tri = B.BiLabeled(FiniteGraph(3, [(0, 1), (1, 2), (0, 2)]), (0,), (0,))
    hm = H.hom_matrix(tri, cycle_graph(5), SIGNATURE_BUDGET_BYTES)
    assert hm.entries == {}


def test_loop_in_k_needs_loop_in_target():
    k = B.BiLabeled(FiniteGraph(1, [(0, 0)]), (0,), (0,))
    assert H.hom_matrix(k, cycle_graph(4),
                        SIGNATURE_BUDGET_BYTES).entries == {}
    loopy = FiniteGraph(2, [(0, 0), (0, 1)])
    hm = H.hom_matrix(k, loopy, SIGNATURE_BUDGET_BYTES)
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
        t1 = dense(H.hom_matrix(k1, tgt, SIGNATURE_BUDGET_BYTES), tgt,
                   k1.n, k1.m)
        t2 = dense(H.hom_matrix(k2, tgt, SIGNATURE_BUDGET_BYTES), tgt,
                   k2.n, k2.m)
        t12 = dense(H.hom_matrix(B.compose(k1, k2), tgt,
                                 SIGNATURE_BUDGET_BYTES), tgt, k1.n, k2.m)
        mids = H.all_tuples_window(tgt.vertex_count, k1.m).tuples
        for i in t1:
            for j in t12[i]:
                assert t12[i][j] == sum(t1[i][h] * t2[h][j] for h in mids)
        done += 1


def test_finite_entries_in_search_order():
    # entries come in the order of their first homomorphism, the maps
    # ordered lexicographically by their images along the search order
    rng = random.Random(5)
    for _ in range(80):
        tgt = random_target(rng, max_v=5)
        tgt = FiniteGraph(tgt.vertex_count, tgt.undirected_edges() + [
            (v, v) for v in range(tgt.vertex_count) if rng.random() < 0.3])
        k = random_blg(rng, max_v=4, max_lab=3)
        g = k.graph
        g = FiniteGraph(g.vertex_count, g.undirected_edges() + [
            (v, v) for v in range(g.vertex_count) if rng.random() < 0.2])
        k = B.BiLabeled(g, k.x, k.y)
        order = H._search_order(g, [])
        want = {}
        for images in itertools.product(range(tgt.vertex_count),
                                        repeat=len(order)):
            phi = dict(zip(order, images))
            if all(tgt.has_edge(phi[u], phi[v])
                   for u, v in g.undirected_edges()):
                key = (tuple(phi[v] for v in k.x),
                       tuple(phi[v] for v in k.y))
                want[key] = want.get(key, 0) + 1
        hm = H.hom_matrix(k, tgt, SIGNATURE_BUDGET_BYTES)
        assert list(hm.entries.items()) == list(want.items())


@st.composite
def loopy_targets(draw):
    """Targets on 0..10 vertices with loops; isolated vertices and
    several components are common."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return FiniteGraph(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=25, deadline=None)
@given(loopy_targets())
def test_pinned_pair_counts_match_backtracking(g):
    q = g.vertex_count
    for pat in planar_patterns(4):
        counts = H.pinned_pair_counts(
            H.hom_rows(pat, g, SIGNATURE_BUDGET_BYTES), q)
        for x1, x2 in itertools.product(range(pat.vertex_count), repeat=2):
            want = [0] * (q * q)
            for i, j in itertools.product(range(q), repeat=2):
                if x1 != x2 or i == j:
                    want[i * q + j] = oracle_count(pat, {x1: i, x2: j},
                                                   g.neighbors)
            assert counts[x1, x2].tolist() == want


@pytest.mark.parametrize("looped", [0, 1])
def test_hom_rows_follow_looped_pattern_vertices(looped):
    # a looped pattern vertex maps only to looped target vertices, both
    # first in search order (no anchor) and after its anchor
    pattern = FiniteGraph(2, [(looped, looped), (0, 1)])
    target = FiniteGraph(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    rows = sorted(map(tuple, H.hom_rows(pattern, target, 1 << 20).tolist()))
    assert rows == sorted(tuple(reversed(r)) if looped else r
                          for r in [(0, 0), (0, 1), (2, 1), (2, 2)])
    hm = H.hom_matrix(B.BiLabeled(pattern, (0, 1), ()), target,
                      SIGNATURE_BUDGET_BYTES)
    assert rows == sorted(i for (i, _j) in hm.entries)


def test_hom_rows_budget():
    # the 4-vertex path on K4 has 4 * 3^3 = 108 rows, and each candidate
    # takes 4 int32 images and 4 intp index words
    path = FiniteGraph(4, [(0, 1), (1, 2), (2, 3)])
    k4 = FiniteGraph(4, list(itertools.combinations(range(4), 2)))
    need = 108 * (4 * 4 + 4 * np.intp(0).itemsize)
    assert len(H.hom_rows(path, k4, need)) == 108
    with pytest.raises(G.BudgetExceeded,
                       match="signature budget of %d" % (need - 1)):
        H.hom_rows(path, k4, need - 1)


def reference_hom_rows(pattern, target):
    """Reference: the one-pattern join loop, rows built at the pattern's
    full width with column v the image of vertex v."""
    n = pattern.vertex_count
    q = target.vertex_count
    indptr, indices, adj = H._csr(target)
    rows = np.zeros((1, n), dtype=np.int32)
    assigned = set()
    for v in H._search_order(pattern, []):
        anchors = [w for w in pattern.neighbors(v) if w in assigned]
        if anchors:
            first = rows[:, anchors[0]]
            deg = indptr[first + 1] - indptr[first]
            total = int(deg.sum())
            src = np.repeat(np.arange(len(rows)), deg)
            start = indptr[first] - (np.cumsum(deg) - deg)
            new = indices[np.arange(total) + np.repeat(start, deg)]
        else:
            total = len(rows) * q
            src = np.repeat(np.arange(len(rows)), q)
            new = np.tile(np.arange(q), len(rows))
        keep = np.ones(total, dtype=bool)
        for w in anchors[1:]:
            keep &= adj[new, rows[src, w]]
        if pattern.has_edge(v, v):
            keep &= adj[new, new]
        rows = rows[src[keep]]
        rows[:, v] = new[keep]
        assigned.add(v)
    return rows


def walk_targets():
    rng = random.Random(34)
    targets = []
    for n in (6, 7, 8):
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        targets.append(FiniteGraph(n, edges))
    # two components and an isolated vertex; loops on some vertices
    targets.append(FiniteGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]))
    targets.append(FiniteGraph(6, [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3),
                                   (3, 4), (4, 5), (5, 5), (1, 4)]))
    return targets


@pytest.mark.parametrize("depth", [4, 6])
def test_trie_walk_matches_the_one_pattern_join(depth):
    # every pattern of the catalogue, and so every entry of
    # pointed_patterns(depth), once, with the reference's rows in order
    patterns = planar_patterns(depth)
    assert {id(p) for p, _base in pointed_patterns(depth)} <= set(
        map(id, patterns))
    for target in walk_targets():
        seen = []
        for j, rows in pattern_trie(depth).rows(target,
                                                SIGNATURE_BUDGET_BYTES):
            seen.append(j)
            want = reference_hom_rows(patterns[j], target)
            assert rows.dtype == want.dtype
            assert np.array_equal(rows, want)
            assert np.array_equal(H.hom_rows(patterns[j], target,
                                             SIGNATURE_BUDGET_BYTES), want)
        assert sorted(seen) == list(range(len(patterns)))


def test_trie_walk_outside_the_catalogue():
    # the empty pattern, isolated and looped vertices, and components
    # that start a new search with no anchor after the first vertex
    patterns = [FiniteGraph(0, []), FiniteGraph(1, []),
                FiniteGraph(1, [(0, 0)]), FiniteGraph(2, []),
                FiniteGraph(3, [(0, 0), (1, 2)]),
                FiniteGraph(4, [(0, 1), (2, 3), (3, 3)])]
    for target in (FiniteGraph(0, []), FiniteGraph(4, [(1, 1), (2, 3)]),
                   FiniteGraph(3, [(0, 0), (0, 1), (1, 2)])):
        got = dict(H.PatternTrie(patterns).rows(target, 1 << 20))
        for j, pattern in enumerate(patterns):
            want = reference_hom_rows(pattern, target)
            assert got[j].shape == want.shape
            assert np.array_equal(got[j], want)


def test_trie_joins_each_shared_prefix_once():
    # the 129 patterns on at most 6 vertices take 727 join steps one by
    # one, and 191 distinct prefixes of steps
    patterns = planar_patterns(6)
    assert sum(p.vertex_count for p in patterns) == 727
    todo, nodes = [pattern_trie(6).root], 0
    while todo:
        node = todo.pop()
        nodes += len(node.kids)
        todo.extend(kid for _key, kid in node.kids)
    assert nodes == 191


def test_trie_walk_budget_counts_rows_kept_for_later_steps():
    # the path 0-1-2 and the star centred at 0 share their first two
    # steps; on K4 the third step of each has 12 * 3 candidates of
    # 3 * 4 + 4 * 8 bytes, and while the path's is taken the 12 shared
    # rows of 3 int32 images are kept for the star's
    path = FiniteGraph(3, [(0, 1), (1, 2)])
    star = FiniteGraph(3, [(0, 1), (0, 2)])
    k4 = FiniteGraph(4, list(itertools.combinations(range(4), 2)))
    step = 36 * (3 * 4 + 4 * np.intp(0).itemsize)
    trie = H.PatternTrie([path, star])
    assert [j for j, _rows in trie.rows(k4, step + 12 * 3 * 4)] == [0, 1]
    with pytest.raises(G.BudgetExceeded,
                       match="signature budget of %d" % (step + 143)):
        list(trie.rows(k4, step + 12 * 3 * 4 - 1))
    # a chain keeps no rows for later: one pattern needs its own step
    assert len(H.hom_rows(path, k4, step)) == 36


def test_trie_walk_stopped_by_the_budget_partway():
    # on K8 the small patterns pass and a 6-vertex step does not
    k8 = FiniteGraph(8, list(itertools.combinations(range(8), 2)))
    budget = 1 << 20
    walk = pattern_trie(6).rows(k8, budget)
    done = []
    with pytest.raises(G.BudgetExceeded,
                       match="over the signature budget of %d" % budget):
        for j, _rows in walk:
            done.append(j)
    assert 0 < len(done) < len(planar_patterns(6))


def test_tensor_and_transpose_functoriality():
    rng = random.Random(1)
    for _ in range(60):
        tgt = random_target(rng, max_v=4)
        k1 = random_blg(rng, max_v=3, max_lab=2)
        k2 = random_blg(rng, max_v=3, max_lab=2)
        hm1 = H.hom_matrix(k1, tgt, SIGNATURE_BUDGET_BYTES)
        hm2 = H.hom_matrix(k2, tgt, SIGNATURE_BUDGET_BYTES)
        hm = H.hom_matrix(B.tensor(k1, k2), tgt, SIGNATURE_BUDGET_BYTES)
        for (i1, j1), v1 in hm1.entries.items():
            for (i2, j2), v2 in hm2.entries.items():
                assert hm.entry(i1 + i2, j1 + j2) == v1 * v2
        hmt = H.hom_matrix(B.transpose(k1), tgt, SIGNATURE_BUDGET_BYTES)
        assert hmt.entries == {(j, i): v for (i, j), v in hm1.entries.items()}


def test_tilde_reverses_indices():
    rng = random.Random(2)
    for _ in range(60):
        tgt = random_target(rng, max_v=4)
        k = random_blg(rng, max_v=3, max_lab=2)
        hm = H.hom_matrix(k, tgt, SIGNATURE_BUDGET_BYTES)
        hmt = H.hom_matrix(B.tilde(k), tgt, SIGNATURE_BUDGET_BYTES)
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
            fm = H.hom_matrix(blg, tgt, SIGNATURE_BUDGET_BYTES)
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


def oracle_count(g, pins, neighbors):
    """Plain backtracking count of the homomorphisms g -> target that
    extend the pin dict: each next vertex is the least one with an
    assigned neighbor, tried at every neighbor of that neighbor's image
    and kept if every edge to an assigned vertex, loops included, maps
    to an edge."""
    def fits(phi, v, c):
        return all((c if w == v else phi[w]) in neighbors(c)
                   for w in g.neighbors(v) if w == v or w in phi)

    if not all(fits(pins, v, c) for v, c in pins.items()):
        return 0

    def extend(phi):
        free = [v for v in range(g.vertex_count) if v not in phi
                and any(w in phi for w in g.neighbors(v))]
        if not free:
            return 1
        v = free[0]
        anchor = next(w for w in g.neighbors(v) if w in phi)
        total = 0
        for c in neighbors(phi[anchor]):
            if fits(phi, v, c):
                phi[v] = c
                total += extend(phi)
                del phi[v]
        return total

    return extend(dict(pins))


def random_pattern(rng, max_v, loops):
    """A connected pattern on at most max_v vertices, each vertex looped
    with probability `loops`: a random graph, or blobs chained at cut
    vertices so that pins split the rest into independent parts."""
    if rng.random() < 0.5:
        nv = rng.randint(1, max_v)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.4]
        edges += [(v, rng.randrange(v)) for v in range(1, nv)]
    else:
        nv, edges = 1, []
        while nv < max_v:
            size = rng.randint(1, min(3, max_v - nv))
            glue = rng.randrange(nv)
            blob = [glue] + list(range(nv, nv + size))
            edges += [(a, b) for i, a in enumerate(blob)
                      for b in blob[i + 1:] if rng.random() < 0.7]
            edges += [(b, rng.choice(blob[:i + 1]))
                      for i, b in enumerate(blob[1:])]
            nv += size
    edges += [(v, v) for v in range(nv) if rng.random() < loops]
    return FiniteGraph(nv, edges)


def check_plan_counts(rng, p, verts, cases, max_v, tuples_per_case,
                      loops=0.0):
    """hom_matrix_windowed against oracle_count with every label pinned,
    at each pair of a row and a column tuple.  A third of the cases have
    x == y (every label pinned, entries in row order); the others draw
    x and y apart, so either may be empty and labels repeat within and
    across the sides."""
    for _ in range(cases):
        g = random_pattern(rng, max_v, loops)

        def labels():
            return tuple(rng.randrange(g.vertex_count)
                         for _ in range(rng.randint(0, 3)))

        def window(arity, size):
            return H.TupleWindow(arity, sorted({
                tuple(rng.choice(verts) for _ in range(arity))
                for _ in range(size)}))

        x = labels()
        y = x if rng.random() < 1 / 3 else labels()
        if not x and not y:
            continue
        rows = window(len(x), tuples_per_case)
        cols = rows if x == y else window(len(y), 4 * tuples_per_case)
        hm = H.hom_matrix_windowed(B.BiLabeled(g, x, y), p, rows, cols)
        want = {}
        for i in rows.tuples:
            for j in cols.tuples:
                pins = {}
                for v, img in zip(x + y, i + j):
                    pins.setdefault(v, img)
                if all(pins[v] == img for v, img in zip(x + y, i + j)):
                    c = oracle_count(g, pins, p.neighbors)
                    if c:
                        want[(i, j)] = c
        assert hm.entries == want
        if x == y:
            assert list(hm.entries) == [key for key in
                                        ((t, t) for t in rows.tuples)
                                        if key in want]


def test_plan_counts_match_backtracking_on_finite_providers():
    rng = random.Random(11)
    for _ in range(40):
        tgt = random_target(rng, max_v=6)
        tgt = FiniteGraph(tgt.vertex_count, tgt.undirected_edges() + [
            (v, v) for v in range(tgt.vertex_count) if rng.random() < 0.3])
        verts = [str(v) for v in range(tgt.vertex_count)]
        check_plan_counts(rng, G.finite_provider(tgt), verts, 5, 7, 12,
                          loops=0.1)


def test_plan_counts_match_backtracking_on_tree_and_grandparent():
    rng = random.Random(12)
    tree = G.tree_provider(3)
    verts = G.ball(tree, tree.base_vertex, 2).keys
    check_plan_counts(rng, tree, verts, 60, 7, 6)
    gp = G.grandparent_graph(3)
    verts = G.ball(gp, gp.base_vertex, 1).keys
    check_plan_counts(rng, gp, verts, 60, 6, 4)


def test_windowed_rejects_unpinned_components_before_scanning():
    p = G.grandparent_graph(3)
    empty = H.TupleWindow(1, [])
    lonely = FiniteGraph(3, [(0, 1)])
    # all labels pinned: the counting plan
    with pytest.raises(G.ValidationError):
        H.hom_matrix_windowed(B.BiLabeled(lonely, (0,), (0,)), p,
                              empty, empty)
    # free output labels: the enumeration
    with pytest.raises(G.ValidationError):
        H.hom_matrix_windowed(B.BiLabeled(lonely, (0,), (1,)), p,
                              empty, empty)
    # a pin that no homomorphism extends still raises
    dead = G.finite_provider(FiniteGraph(2, []))
    rows = H.TupleWindow(1, [("0",)])
    with pytest.raises(G.ValidationError):
        H.hom_matrix_windowed(B.BiLabeled(lonely, (0,), (1,)), dead,
                              rows, rows)


# Pinned counts as (pattern, x1, x2), with the (entries, sum, sha256
# prefix of the item list) of each on the d = 3 grandparent window of
# radius 4.  All but (sq, 0, 3) are the window seeds of FunctionEngine.
# The square with diagonal pinned at its far corners is kept only as a
# counting oracle: its pins sit at distance 2, outside the window's pair
# domain, so as a seed it only repeated the triangle's vertex function
# on the diagonal (same entries, sum and digest as (tri, 0, 0)).
def pinned_window_patterns():
    sq = M._square_diag_graph()
    tri = FiniteGraph(3, [(0, 1), (1, 2), (2, 0)])
    edge = FiniteGraph(2, [(0, 1)])
    return [(edge, 0, 1), (sq, 0, 1), (tri, 0, 1),
            (FiniteGraph(3, [(0, 1), (1, 2)]), 0, 0), (sq, 0, 3),
            (M._double_square_diag_graph(), 0, 4),
            (edge, 0, 0), (sq, 0, 0), (tri, 0, 0)]


WINDOW_SEEDS_D3 = [
    (670, 670, "0f5a5768299797bf"),
    (670, 3018, "3013d5b1a47bbdb9"),
    (670, 1342, "a258c2688700deda"),
    (169, 10816, "74ba8f3bf63bcb93"),
    (169, 2366, "a68ab75413c4a92d"),
    (839, 55852, "7eed8b910ee9f626"),
    (169, 1352, "9b2eec852699736d"),
    (169, 5746, "16bbcdff0a58c023"),
    (169, 2366, "a68ab75413c4a92d"),
]


def test_window_seed_counts_frozen():
    eng = M.FunctionEngine(M.scene_for(G.grandparent_graph(3),
                                       {"radius": 4}))
    for (g, x1, x2), want in zip(pinned_window_patterns(),
                                 WINDOW_SEEDS_D3):
        fn, _rad = eng._eval_pattern(g, x1, x2)
        items = list(fn.items())
        digest = hashlib.sha256(repr(items).encode()).hexdigest()[:16]
        assert (len(items), sum(fn.values()), digest) == want


def test_chained_square_count_is_matrix_square():
    p = G.grandparent_graph(3)
    sq = M._square_diag_graph()
    chained = M._double_square_diag_graph()
    b = G.ball(p, p.base_vertex, 1)
    pairs = [(u, v) for u in b.keys for v in b.keys
             if u == v or v in p.neighbors(u)]
    win = H.TupleWindow(2, pairs)
    got = H.hom_matrix_windowed(B.BiLabeled(chained, (0, 4), (0, 4)),
                                p, win, win).entries
    halves = sorted({(u, h) for u, v in pairs
                     for h in set(p.neighbors(u)) & set(p.neighbors(v))}
                    | {(h, v) for u, v in pairs
                       for h in set(p.neighbors(u)) & set(p.neighbors(v))})
    hwin = H.TupleWindow(2, halves)
    f = H.hom_matrix_windowed(B.BiLabeled(sq, (0, 1), (0, 1)),
                              p, hwin, hwin).entries
    for u, v in pairs:
        want = sum(f.get(((u, h), (u, h)), 0) * f.get(((h, v), (h, v)), 0)
                   for h in p.neighbors(u))
        assert got.get(((u, v), (u, v)), 0) == want
    assert len(got) == len(pairs)


def test_chained_square_plan_splits():
    plan = H._Plan(M._double_square_diag_graph(), [0, 4], ())

    def splits(parts):
        return any(len(p.parts) >= 2 or splits(p.parts) for p in parts)

    assert splits(plan.parts)


def test_partial_trace_adjacency_c4():
    a = B.adjacency_gadget()
    hm = H.hom_matrix(a, cycle_graph(4), SIGNATURE_BUDGET_BYTES)
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
