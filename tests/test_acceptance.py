"""Acceptance gate: one test per primary criterion, at stated tolerances.

Each test prints a single summary line with the measured quantities; the
pytest verdict line for each test is the pass/fail record of the
corresponding criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qgs import algebra, bilabeled as B, graphs as G, hommat as H
from qgs import morspace as ms
from qgs import quantiso, quantization
from qgs.graphs import FiniteGraph, classical_aut, cycle_graph, path_graph
from qgs.quantiso import SIGNATURE_BUDGET_BYTES
from qgs.ratmat import RatSpan
from test_quantiso import reference_pointed_counts


def random_connected(rng, lo, hi):
    while True:
        n = rng.randint(lo, hi)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = FiniteGraph(n, edges)
        if g.is_connected():
            return g


def random_blg(rng, max_v=3, max_lab=2):
    nv = rng.randint(1, max_v)
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    edges = [e for e in pairs if rng.random() < 0.5]
    x = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
    y = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max_lab)))
    return B.BiLabeled(FiniteGraph(nv, edges), x, y)


def test_criterion_1_functoriality():
    # compose/tensor/transpose/tilde of hom matrices, exact integers
    rng = random.Random(11)
    start = time.monotonic()
    cases = 0
    while cases < 500:
        tgt = random_connected(rng, 1, 7)
        k1 = random_blg(rng)
        k2 = random_blg(rng)
        h1 = H.hom_matrix(k1, tgt, SIGNATURE_BUDGET_BYTES)
        h2 = H.hom_matrix(k2, tgt, SIGNATURE_BUDGET_BYTES)
        if k1.m == k2.n:
            whole = H.hom_matrix(B.compose(k1, k2), tgt,
                                 SIGNATURE_BUDGET_BYTES)
            prod = {}
            by_row = {}
            for (h, j), v in h2.entries.items():
                by_row.setdefault(h, []).append((j, v))
            for (i, h), v in h1.entries.items():
                for (j, w) in by_row.get(h, []):
                    prod[(i, j)] = prod.get((i, j), 0) + v * w
            assert whole.entries == {k: v for k, v in prod.items() if v}
        tens = H.hom_matrix(B.tensor(k1, k2), tgt, SIGNATURE_BUDGET_BYTES)
        expect = {}
        for (i1, j1), v1 in h1.entries.items():
            for (i2, j2), v2 in h2.entries.items():
                expect[(i1 + i2, j1 + j2)] = v1 * v2
        assert tens.entries == expect
        ht = H.hom_matrix(B.transpose(k1), tgt, SIGNATURE_BUDGET_BYTES)
        assert ht.entries == {(j, i): v for (i, j), v in h1.entries.items()}
        hr = H.hom_matrix(B.tilde(k1), tgt, SIGNATURE_BUDGET_BYTES)
        assert hr.entries == {(tuple(reversed(j)), tuple(reversed(i))): v
                              for (i, j), v in h1.entries.items()}
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print("criterion 1: %d cases exact in %.1fs (< 60s)" % (cases, elapsed))


def test_criterion_2_grandparent_numerology():
    # square-plus-diagonal gadget is constant on the three edge classes
    gadget = B.BiLabeled(
        FiniteGraph(4, [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2)]),
        (0,), (1,))
    start = time.monotonic()
    for d in (3, 4):
        expected = {"positive_short": 2 * d - 1,
                    "negative_short": d * (d - 1) + 1,
                    "long": d}
        p = G.grandparent_graph(d, vertex_budget=200000)
        ball = G.ball(p, p.base_vertex, 4)
        core = [v for v in ball.keys if ball.distances[v] <= 2]
        rows = H.TupleWindow(1, [(v,) for v in core])
        cols = H.TupleWindow(1, [(v,) for v in ball.keys])
        hm = H.hom_matrix_windowed(gadget, p, rows, cols)
        seen = {}
        for v in core:
            for w in p.neighbors(v):
                cls = p.edge_class(v, w)
                seen.setdefault(cls, set()).add(hm.entry((v,), (w,)))
        assert seen == {cls: {val} for cls, val in expected.items()}
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print("criterion 2: edge-class values (5,7,3) and (7,13,4) exact "
          "in %.1fs (< 120s)" % elapsed)


def test_criterion_3_dimension_modular():
    start = time.monotonic()
    window = {"radius": 4, "guard": 2}
    gp = G.grandparent_graph(3)
    basis = ms.generate_mor(gp, 1, 1, window=window)
    atoms = ms.minimal_projections(basis)
    mu = ms.mu_assignment(gp, window=window)
    assert mu.cocycle_ok
    pos = []
    for a in atoms:
        (u, v) = next(iter(a.matrix))[0]
        if u != v and gp.edge_class(u, v) == "positive_short":
            pos.append(a)
        if u != v:
            # the modular scaling of every edge atom is the mu ratio
            for (i, j), _ in a.matrix.items():
                if i[0] in mu.mu and i[-1] in mu.mu:
                    assert a.rho == mu.mu[i[-1]] / mu.mu[i[0]]
    assert len(pos) == 1
    assert (pos[0].d_left, pos[0].d_right) == (1, 2)
    assert pos[0].rho == Fraction(2)
    child = next(iter(pos[0].matrix))[0][0]
    parent = gp.parent_key(child)
    assert mu.mu[parent] / mu.mu[child] == Fraction(2)
    tree = G.tree_provider(3)
    mu_t = ms.mu_assignment(tree, window=window)
    assert mu_t.cocycle_ok
    assert set(mu_t.mu.values()) == {Fraction(1)}
    for a in ms.minimal_projections(ms.generate_mor(tree, 1, 1,
                                                    window=window)):
        assert a.rho == 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print("criterion 3: (1,2) atom, rho=2, mu parent/child=2, tree "
          "unimodular, exact in %.1fs (< 120s)" % elapsed)


def classical_tuple_orbits(g, length):
    auts, _ = classical_aut(g)
    seen = set()
    count = 0
    for tup in itertools.product(range(g.vertex_count), repeat=length):
        if tup in seen:
            continue
        count += 1
        for p in auts:
            seen.add(tuple(p[t] for t in tup))
    return count


def test_criterion_4_classical_oracle():
    rng = random.Random(23)
    start = time.monotonic()
    for _ in range(20):
        g = random_connected(rng, 3, 8)
        _auts, orb = classical_aut(g)
        assert ms.generate_mor(g, 0, 0, category="all").rank == len(orb)
        assert ms.generate_mor(g, 1, 1, category="all").rank == \
            classical_tuple_orbits(g, 2)
        q = ms.quantum_orbits(g, category="all")
        assert q.exactness == "exact"
        assert q.matches_classical
        assert sorted(sorted(c) for c in q.classes) == \
            sorted(sorted(c) for c in orb)
    elapsed = time.monotonic() - start
    assert elapsed < 180
    print("criterion 4: 20 random graphs match classical orbits exactly "
          "in %.1fs (< 180s)" % elapsed)


def test_criterion_5_haar_suite():
    start = time.monotonic()
    graphs = {"C4": cycle_graph(4), "K3": FiniteGraph(3, [(0, 1), (1, 2),
                                                          (0, 2)]),
              "P3": path_graph(3), "K4": FiniteGraph(4, [(0, 1), (0, 2),
                                                         (0, 3), (1, 2),
                                                         (1, 3), (2, 3)])}
    rng = random.Random(5)
    worst_invariance = 0.0
    min_positivity = 0.0
    worst_trace = 0.0
    worst_modular = 0.0
    worst_base_change = 0.0
    for name, g in graphs.items():
        hs = algebra.haar_system(g)
        # positivity: 50 random x*x per graph, 200 total
        for _ in range(50):
            x = {}
            for _ in range(3):
                length = rng.randint(1, 2)
                i = tuple(rng.randrange(g.vertex_count)
                          for _ in range(length))
                j = tuple(rng.randrange(g.vertex_count)
                          for _ in range(length))
                algebra.add_into(x, algebra.word(i, j, rng.choice((1, -1))))
            val = hs.phi_e(algebra.word_mul(x, algebra.word_star(x)), 0)
            min_positivity = min(min_positivity, val)
        # left invariance on every b = u_se U_n(i,j) u_te with n <= 2
        for e in range(g.vertex_count):
            worst_invariance = max(worst_invariance,
                                   hs.left_invariance_residual(e, n_max=2))
        # trace property phi(x y) = phi(y rho(x)) on random path symbols
        for _ in range(25):
            p1 = _random_path(rng, hs, 2)
            p2 = _random_path(rng, hs, 2, start=(p1[0][-1], p1[1][-1]))
            x = {p1: 1.0}
            y = {p2: 1.0}
            lhs = hs.phi_f(ms.rel_tensor(x, y))
            rhs = hs.phi_f(ms.rel_tensor(y, hs.rho_f(x)))
            worst_trace = max(worst_trace, abs(lhs - rhs))
        # modular element and base-point change
        rep = algebra.delta_checks(g, 0, g.vertex_count - 1)
        worst_modular = max(worst_modular, rep["modular_residual"])
        worst_base_change = max(worst_base_change,
                                rep["base_change_residual"])
    assert min_positivity >= -1e-9
    assert worst_invariance < 1e-9
    assert worst_trace < 1e-9
    assert worst_modular < 1e-9
    assert worst_base_change < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print("criterion 5: positivity >= %.1e, residuals invariance %.1e, "
          "trace %.1e, modular %.1e, base change %.1e in %.1fs (< 300s)"
          % (min_positivity, worst_invariance, worst_trace, worst_modular,
             worst_base_change, elapsed))


def _random_path(rng, hs, length, start=None):
    g = hs.graph
    while True:
        if start is None:
            p = [rng.randrange(g.vertex_count)]
            q = [rng.randrange(g.vertex_count)]
        else:
            p, q = [start[0]], [start[1]]
        for _ in range(length):
            p.append(rng.choice(list(g.neighbors(p[-1]))))
            q.append(rng.choice(list(g.neighbors(q[-1]))))
        key = (tuple(p), tuple(q))
        if not hs.f_is_zero(*key):
            return key


def test_criterion_6_conjugate_equations():
    start = time.monotonic()
    for g in (cycle_graph(4), path_graph(3)):
        for arity in (1, 2):
            basis = ms.generate_mor(g, arity, arity, category="planar")
            for p in ms.minimal_projections(basis):
                cs = ms.conjugate_solutions(p)
                assert cs.residual_left < 1e-9
                assert cs.residual_right < 1e-9
                for v in cs.trace_left_value.values():
                    assert abs(v - round(v)) < 1e-9
                    assert abs(v - float(p.d_left)) < 1e-9
                for v in cs.trace_right_value.values():
                    assert abs(v - round(v)) < 1e-9
                    assert abs(v - float(p.d_right)) < 1e-9
    elapsed = time.monotonic() - start
    print("criterion 6: conjugate equations and integer trace dimensions "
          "within 1e-9 in %.1fs" % elapsed)


def test_criterion_7_planar_iso():
    rng = random.Random(31)
    start = time.monotonic()
    for _ in range(500):
        g = random_connected(rng, 3, 8)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        h = FiniteGraph(g.vertex_count,
                        [(perm[u], perm[v])
                         for (u, v) in g.undirected_edges()])
        verdict = quantiso.planar_iso_test(g, h, depth=6)
        assert verdict.indistinguishable
    for g1, g2 in ((cycle_graph(4), path_graph(4)),
                   (FiniteGraph(3, [(0, 1), (1, 2), (0, 2)]),
                    path_graph(3))):
        v12 = quantiso.planar_iso_test(g1, g2, depth=6)
        v21 = quantiso.planar_iso_test(g2, g1, depth=6)
        assert v12.status == "distinguished" == v21.status
        w = v12.witness
        # the witness counts are reproduced by pointed_hom_count and by
        # the dense pattern tensors of the reference, which share no
        # code with the signatures' homomorphism rows
        for g, orbit, count in ((g1, w["orbit1"], w["count1"]),
                                (g2, w["orbit2"], w["count2"])):
            reference = reference_pointed_counts(w["pattern"],
                                                 w["basepoint"], g)
            for v in orbit:
                assert quantiso.pointed_hom_count(
                    w["pattern"], w["basepoint"], g, v) == count
                assert reference[v] == count
        assert w["count1"] != w["count2"]
        assert v21.witness["count1"] == w["count2"]
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print("criterion 7: 500 isomorphic pairs indistinguishable at depth 6,"
          " witnesses reproduced, in %.1fs (< 300s)" % elapsed)


def test_criterion_8_fiber_ranks():
    start = time.monotonic()
    spec = G.free_product_cyclic_group([2, 2, 2, 2])
    assert quantization.fiber_span_rank(spec, 1, 1)["rank"] == 1
    assert quantization.fiber_span_rank(spec, 2, 2)["rank"] == 3
    oracle = quantization.noncrossing_even_count(6)
    assert quantization.fiber_span_rank(spec, 3, 3)["rank"] == oracle
    # exact functoriality on 100 composable generated pairs
    z = G.integers_group()
    layers = quantization._layers(4, 10, 400)
    cache = {}

    def fm(k):
        if k not in cache:
            cache[k] = quantization.fiber_matrix(k, z)
        return cache[k]

    checked = 0
    for a in layers:
        for b in layers:
            if a.m != b.n:
                continue
            whole = quantization.fiber_matrix(B.compose(a, b), z)
            assert whole.entries == quantization.fiber_multiply(
                fm(a), fm(b)).entries
            checked += 1
            if checked >= 100:
                break
        if checked >= 100:
            break
    assert checked >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print("criterion 8: ranks (1, 3, %d) match the partition oracle, "
          "functoriality exact on %d pairs, in %.1fs (< 300s)"
          % (oracle, checked, elapsed))
