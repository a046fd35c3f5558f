"""Tests for generated morphism spaces, orbits, projections, and mu."""

from fractions import Fraction
from itertools import product

import pytest

from qgs.graphs import (BudgetExceeded, FiniteGraph, ValidationError,
                        classical_aut, cycle_graph, grandparent_graph,
                        tree_provider)
import qgs.morspace as ms
import qgs.hommat as hm
from qgs.bilabeled import BiLabeled
from qgs.quantiso import SIGNATURE_BUDGET_BYTES


def c4():
    return FiniteGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def p3():
    return FiniteGraph(3, [(0, 1), (1, 2)])


def k3():
    return FiniteGraph(3, [(0, 1), (1, 2), (2, 0)])


def k4():
    return FiniteGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                           (2, 3)])


def classical_loop_orbits(g, length):
    """Oracle: orbits of the automorphism group on loop coordinates."""
    auts, _orb = classical_aut(g)
    seen = set()
    count = 0
    for tup in product(range(g.vertex_count), repeat=length):
        if tup in seen:
            continue
        count += 1
        for p in auts:
            seen.add(tuple(p[t] for t in tup))
    return count


def test_ladder_matches_classical_orbit_counts_without_quantum_symmetry():
    # K3 and P3 have no quantum symmetry, so the generated column spaces
    # must match the classical invariant counts at every level
    for g in (k3(), p3()):
        lad = ms.ColumnLadder(g, "planar", max_level=5)
        assert lad.stable
        for m in range(1, 6):
            assert len(lad.levels[m]) == classical_loop_orbits(g, m)


def test_ladder_frozen_ranks_quantum_graphs():
    # the top level can lack contractions from above, so levels are
    # trusted one below the build cap; the C4 value 462 at level 6 was
    # also confirmed with a level-7 build
    lad = ms.ColumnLadder(c4(), "planar", max_level=6)
    assert lad.stable
    assert [len(lad.levels[m]) for m in range(7)] == \
        [1, 1, 3, 10, 35, 126, 462]
    lad = ms.ColumnLadder(k4(), "planar", max_level=6)
    # the complete graph gives the Catalan numbers
    assert [len(lad.levels[m]) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    # quantum symmetry makes these spans strictly smaller than classical
    assert classical_loop_orbits(c4(), 5) > 126
    assert classical_loop_orbits(k4(), 5) > 42


def p4():
    return FiniteGraph(4, [(0, 1), (1, 2), (2, 3)])


def star():
    return FiniteGraph(4, [(0, 1), (0, 2), (0, 3)])


def c5():
    return FiniteGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


# generate_mor ranks at M = n + m = 1..4, frozen from the dict closure
# that served Mor(n, m) before the ladder did; they depend on M only
MOR_RANKS = [
    (k3, "planar", [1, 2, 5, 14]), (k3, "all", [1, 2, 5, 14]),
    (p3, "planar", [2, 5, 14, 41]), (p3, "all", [2, 5, 14, 41]),
    (k4, "planar", [1, 2, 5, 14]), (k4, "all", [1, 2, 5, 15]),
    (c4, "planar", [1, 3, 10, 35]), (c4, "all", [1, 3, 10, 36]),
    (star, "planar", [2, 5, 15, 51]), (star, "all", [2, 5, 15, 51]),
    (c5, "planar", [1, 3, 13, 63]), (c5, "all", [1, 3, 13, 63]),
    (p4, "planar", [2, 8, 32, 128]), (p4, "all", [2, 8, 32, 128]),
]


def served_pairs():
    return [(n, M - n) for M in range(1, ms.MOR_LEVEL + 1)
            for n in range(M + 1)]


@pytest.mark.parametrize("make, category, ranks", MOR_RANKS)
def test_mor_ranks_match_the_frozen_table(make, category, ranks):
    g = make()
    for n, m in served_pairs():
        assert ms.generate_mor(g, n, m, category=category).rank == \
            ranks[n + m - 1], (n, m)


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("make", [c4, star, p4])
def test_mor_elements_are_intertwiner_shaped(make, category):
    g = make()
    for n, m in served_pairs():
        for mat in ms.generate_mor(g, n, m, category=category).matrices:
            for (i, j) in mat:
                assert len(i) == n + 1 and len(j) == m + 1
                assert i[0] == j[0] and i[-1] == j[-1]
    adj = {((u, v), (u, v)): 1 for u in range(g.vertex_count)
           for v in g.neighbors(u)}
    # the span at (1, 1) commutes with the adjacency matrix
    for mat in ms.generate_mor(g, 1, 1, category=category).matrices:
        assert ms.mat_mul(adj, mat) == ms.mat_mul(mat, adj)


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("make", [c4, star])
def test_mor_spaces_are_closed_under_adjoint_and_composition(make,
                                                             category):
    from qgs.ratmat import RatSpan
    g = make()

    def mats(n, m):
        return ms.generate_mor(g, n, m, category=category).matrices

    def span(n, m):
        sp = RatSpan()
        for mat in mats(n, m):
            sp.add(mat)
        return sp

    for n, m in served_pairs():
        target = span(m, n)
        assert all(target.contains(ms.mat_adjoint(a)) for a in mats(n, m))
    for (n, k, m) in [(1, 2, 1), (2, 1, 2), (2, 2, 0), (1, 1, 3),
                      (3, 1, 1), (0, 2, 2)]:
        target = span(n, m)
        for a in mats(n, k):
            for b in mats(k, m):
                prod = ms.mat_mul(a, b)
                assert not prod or target.contains(prod), (n, k, m)


def test_mor_beyond_the_ladder_is_refused():
    with pytest.raises(ValidationError):
        ms.generate_mor(c4(), 3, 2)
    with pytest.raises(ValidationError):
        ms.generate_mor(c4(), 0, 5)


def test_ladder_seeded_by_functions_alone_is_stable_on_k4():
    # from the function engine's seeds alone, the K4 closure to level 7
    # takes 9 rounds; it must end by saturation, not by LADDER_ROUNDS
    lad = ms.ColumnLadder(k4(), "planar", max_level=7)
    assert lad.stable
    assert [len(lad.levels[M]) for M in range(7)] == \
        [1, 1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("g, planar_rank", [(k4(), 14), (c4(), 35)])
def test_category_all_rank_is_burnside_count(g, planar_rank):
    # path-form keys at (2, 2) are the 4-tuples (i0, i1, i2, j1), so the
    # classical rank is the number of orbits of Aut on V^4 (Burnside)
    auts, _orb = classical_aut(g)
    fixed = [sum(p[v] == v for v in range(g.vertex_count)) for p in auts]
    burnside = sum(f ** 4 for f in fixed) // len(auts)
    assert ms.generate_mor(g, 2, 2, category="all").rank == burnside
    assert ms.generate_mor(g, 2, 2).rank == planar_rank
    assert burnside == planar_rank + 1


def test_quantum_orbits_match_classical_on_small_graphs():
    import random
    rng = random.Random(7)
    checked = 0
    while checked < 8:
        nv = rng.randint(3, 7)
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = FiniteGraph(nv, edges)
        if not g.is_connected():
            continue
        orb = ms.quantum_orbits(g, category="all")
        assert orb.exactness == "exact"
        assert orb.matches_classical
        checked += 1


def test_orbit_ranks_equal_orbit_counts():
    for g in (c4(), p3(), k3(), k4()):
        auts, orb = classical_aut(g)
        b00 = ms.generate_mor(g, 0, 0, category="all")
        assert b00.rank == len(orb)
        b11 = ms.generate_mor(g, 1, 1, category="all")
        assert b11.rank == classical_loop_orbits(g, 2)


def test_minimal_projections_arity_one_exact():
    b = ms.generate_mor(c4(), 1, 1, category="planar")
    projs = ms.minimal_projections(b)
    assert len(projs) == 3
    assert all(p.exact for p in projs)
    assert sorted((p.d_left, p.d_right) for p in projs) == \
        [(1, 1), (1, 1), (2, 2)]
    # projections are idempotent and sum to the full diagonal
    total = {}
    for p in projs:
        assert ms.mat_mul(p.matrix, p.matrix) == p.matrix
        for k, v in p.matrix.items():
            total[k] = total.get(k, 0) + v
    assert total == {((u, v), (u, v)): 1 for u in range(4)
                     for v in range(4)}


def test_minimal_projections_spectral_arity_two():
    b = ms.generate_mor(c4(), 2, 2, category="planar")
    assert b.rank == 35
    projs = ms.minimal_projections(b, seed=0)
    assert len(projs) == 11
    dims = sorted(p.d_left for p in projs)
    assert dims == [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
    for p in projs:
        assert p.residual < 1e-9
        assert p.d_left == p.d_right  # C4 carries a trivial weight


def test_conjugate_solutions_zigzag_and_traces():
    for g in (c4(), p3()):
        b = ms.generate_mor(g, 1, 1, category="planar")
        for p in ms.minimal_projections(b):
            cs = ms.conjugate_solutions(p)
            assert cs.residual_left == 0
            assert cs.residual_right == 0
            assert set(cs.trace_left_value.values()) == {p.d_left}
            assert set(cs.trace_right_value.values()) == {p.d_right}


def test_conjugate_solutions_spectral():
    b = ms.generate_mor(p3(), 2, 2, category="planar")
    for p in ms.minimal_projections(b):
        cs = ms.conjugate_solutions(p)
        assert cs.residual_left < 1e-9
        assert cs.residual_right < 1e-9
        for v in cs.trace_left_value.values():
            assert abs(v - round(v)) < 1e-9


def reference_spectral_projections(basis, orbits, tol, seed):
    """Oracle: per eigenvalue cluster, membership by its own least
    squares fit against the d^2 x r stacked basis, and minimality by an
    SVD rank of the r x d^2 stack of P a P."""
    import random
    import numpy as np
    support = sorted({t for mat in basis.matrices for key in mat
                      for t in key})
    idx = {t: k for k, t in enumerate(support)}
    dim = len(support)
    dense = []
    for mat in basis.matrices:
        a = np.zeros((dim, dim))
        for (i, j), c in mat.items():
            a[idx[i], idx[j]] = float(c)
        dense.append(a)
    rng = random.Random(seed)
    coeffs = [rng.uniform(0.5, 1.5) for _ in dense]
    h = sum(c * (a + a.T) / 2 for c, a in zip(coeffs, dense))
    evals, evecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(evals))))
    clusters = []
    for k, lam in enumerate(evals):
        if clusters and abs(lam - clusters[-1][0]) < 1e3 * tol * scale:
            clusters[-1][1].append(k)
        else:
            clusters.append((lam, [k]))
    flat = np.stack([a.ravel() for a in dense]).T
    out = []
    for lam, ks in clusters:
        if abs(lam) < 1e3 * tol * scale:
            continue
        v = evecs[:, ks]
        proj = v @ v.T
        coef = np.linalg.lstsq(flat, proj.ravel(), rcond=None)[0]
        if np.max(np.abs(flat @ coef - proj.ravel())) > 1e3 * tol:
            continue
        corner = np.stack([(proj @ a @ proj).ravel() for a in dense])
        if np.linalg.matrix_rank(corner, tol=1e3 * tol * scale) != 1:
            continue
        mat = {}
        for a in range(dim):
            for b in range(dim):
                if abs(proj[a, b]) > tol:
                    mat[(support[a], support[b])] = proj[a, b]
        anchor = max(mat, key=lambda k: abs(mat[k]))
        d_l = ms._float_orbit_constant(hm.partial_trace(mat, "left"),
                                       orbits, anchor[0][0], tol)
        d_r = ms._float_orbit_constant(hm.partial_trace(mat, "right"),
                                       orbits, anchor[0][-1], tol)
        if d_l is not None and d_r is not None:
            out.append((ms._block_of(orbits, anchor[0]), d_l, d_r, mat))
    return out


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("make", [k3, p3, k4, c4,
                                  lambda: FiniteGraph(4, [(0, 1), (0, 2),
                                                          (0, 3)]),
                                  lambda: FiniteGraph(4, [(0, 1), (1, 2),
                                                          (2, 3)]),
                                  lambda: cycle_graph(5)],
                         ids=["K3", "P3", "K4", "C4", "K1,3", "P4", "C5"])
def test_spectral_projections_match_the_reference(make, category):
    b = ms.generate_mor(make(), 2, 2, category=category)
    orbits = ms.quantum_orbits(b.scene.graph, category=category)
    got = ms._spectral_projections(b, orbits, 1e-9, 0)
    want = reference_spectral_projections(b, orbits, 1e-9, 0)
    assert [(p.block, p.d_left, p.d_right, p.exact) for p in got] == \
        [(block, d_l, d_r, False) for block, d_l, d_r, _mat in want]
    for p, (_block, _d_l, _d_r, mat) in zip(got, want):
        assert list(p.matrix) == list(mat)
        assert max(abs(p.matrix[k] - mat[k]) for k in mat) < 1e-9
        assert p.residual < 1e-9


def test_spectral_projections_stay_on_the_endpoint_blocks():
    # on C8 a dense stack of the Mor(2, 2) basis over all 8^3 tuples is
    # 260 x 512 x 512 floats (545 MB); the endpoint blocks hold 1/64 of it
    import tracemalloc
    b = ms.generate_mor(cycle_graph(8), 2, 2, category="all")
    orbits = ms.quantum_orbits(b.scene.graph, category="all")
    tracemalloc.start()
    try:
        got = ms._spectral_projections(b, orbits, 1e-9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(b.matrices) == 260 and len(got) == 40
    assert peak < 64 * 2 ** 20


def test_mu_assignment_grandparent():
    gp = grandparent_graph(3)
    mu = ms.mu_assignment(gp, window={"radius": 4, "guard": 2})
    assert mu.cocycle_ok
    e = mu.e
    parent = gp.parent_key(e)
    assert mu.mu[parent] / mu.mu[e] == Fraction(2)
    assert mu.mu[gp.parent_key(parent)] / mu.mu[e] == Fraction(4)
    assert all(isinstance(v, Fraction) for v in mu.mu.values())


def test_mu_assignment_tree_is_trivial():
    mu = ms.mu_assignment(tree_provider(3), window={"radius": 4,
                                                    "guard": 2})
    assert mu.cocycle_ok
    assert set(mu.mu.values()) == {Fraction(1)}


def test_grandparent_edge_atoms():
    gp = grandparent_graph(3)
    b = ms.generate_mor(gp, 1, 1, window={"radius": 4, "guard": 2})
    atoms = ms.minimal_projections(b)
    by_class = {}
    for a in atoms:
        (u, v) = next(iter(a.matrix))[0]
        cls = gp.edge_class(u, v) if u != v else "diagonal"
        by_class.setdefault(cls, []).append((a.d_left, a.d_right))
    assert by_class["positive_short"] == [(1, 2)]
    assert by_class["negative_short"] == [(2, 1)]
    assert sorted(by_class["long"]) == [(1, 4), (4, 1)]
    pos = [a for a in atoms
           if (a.d_left, a.d_right) == (1, 2)][0]
    assert pos.rho == Fraction(2)


def test_edge_substitute_with_adjacency_recovers_pattern_counts():
    g = c4()
    k = ms._square_diag_graph()
    adj = {(u, v): 1 for u in range(4) for v in g.neighbors(u)}
    assign = {e: adj for e in k.undirected_edges()}
    got = ms.edge_substitute(k, 0, 1, assign, g)
    ref = {i: c for (i, _j), c in
           hm.hom_matrix(BiLabeled(k, (0, 1), (0, 1)), g,
                         SIGNATURE_BUDGET_BYTES).entries.items()}
    assert got == ref


def test_edge_substitute_lands_in_pair_span():
    g = c4()
    fe = ms.function_engine(g)
    k = FiniteGraph(3, [(0, 1), (1, 2)])
    adj = {(u, v): 1 for u in range(4) for v in g.neighbors(u)}
    assign = {(0, 1): adj, (1, 2): adj}
    got = ms.edge_substitute(k, 0, 2, assign, g)
    from qgs.ratmat import RatSpan
    span = RatSpan()
    for fn in fe.f1_basis():
        span.add({p: Fraction(c) for p, c in fn.items()})
    assert span.contains({p: Fraction(c) for p, c in got.items()})


def test_path_and_lambda_projections():
    g = c4()
    pp = ms.path_projection(g, 2)
    walks = [(a, b, c) for a in range(4) for b in g.neighbors(a)
             for c in g.neighbors(b)]
    assert pp == {(w, w): 1 for w in walks}
    lp = ms.lambda_projection(g, 1, 2)
    # every pair of C4 vertices is within distance 2
    assert len(lp) == 16


def brute_edge_substitute(pattern, x1, x2, assignment, q):
    """Reference: the sum over all q^n vertex maps of the product of the
    assigned edge values, with nothing pruned."""
    out = {}
    for phi in product(range(q), repeat=pattern.vertex_count):
        w = 1
        for (a, b), fn in assignment.items():
            w *= fn.get((phi[a], phi[b]), 0)
        out[(phi[x1], phi[x2])] = out.get((phi[x1], phi[x2]), 0) + w
    return {p: c for p, c in out.items() if c}


def brute_walks(q, n, step):
    """Reference: the diagonal indicator of the (n + 1)-tuples whose
    consecutive entries all satisfy step."""
    return {(t, t): 1 for t in product(range(q), repeat=n + 1)
            if all(step(a, b) for a, b in zip(t, t[1:]))}


def random_graph(rng, q, p):
    """A random graph on q vertices with edge probability p and a loop
    at each vertex with probability 1/4."""
    return FiniteGraph(q, [(u, v) for u in range(q) for v in range(u, q)
                           if rng.random() < (p if u != v else 0.25)])


def test_edge_substitute_matches_brute_force():
    import random
    rng = random.Random(7)
    weights = [1, 2, -1, 3, Fraction(1, 2)]
    for case in range(80):
        q = rng.randint(1, 5)
        g = random_graph(rng, q, 0.5)
        n = rng.randint(1, 4)
        # a random tree on the pattern vertices, extra edges closing
        # cycles, a loop or two, and mixed orientations
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u, n)
                  if rng.random() < 0.2}
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
        assign = {e: {(u, v): rng.choice(weights)
                      for u in range(q) for v in range(q)
                      if rng.random() < (0.9 if g.has_edge(u, v)
                                         else 0.2)}
                  for e in edges}
        x1, x2 = rng.randrange(n), rng.randrange(n)
        k = FiniteGraph(n, edges)
        got = ms.edge_substitute(k, x1, x2, assign, g)
        ref = brute_edge_substitute(k, x1, x2, assign, q)
        assert got == ref and list(got) == sorted(ref), case
    with pytest.raises(ValidationError, match="not connected to the pins"):
        ms.edge_substitute(FiniteGraph(3, [(1, 2)]), 0, 0,
                           {(1, 2): {(0, 1): 1}}, p3())


def test_edge_substitute_pinned_twice_is_diagonal():
    # both pins on the vertex of a one-edge pattern: the entry at (i, i)
    # is the degree of i, and every entry off the diagonal is 0
    g = p3()
    adj = {(u, v): 1 for u in range(3) for v in g.neighbors(u)}
    got = ms.edge_substitute(FiniteGraph(2, [(0, 1)]), 0, 0,
                             {(0, 1): adj}, g)
    assert got == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_projections_match_brute_force():
    import random
    rng = random.Random(11)
    for case in range(40):
        q = rng.randint(1, 5)
        g = random_graph(rng, q, 0.4)
        n, lam = rng.randint(0, 3), rng.randint(0, 3)
        # distances by Floyd-Warshall over the edges
        inf = q + 1
        d = [[0 if u == v else 1 if g.has_edge(u, v) else inf
              for v in range(q)] for u in range(q)]
        for w in range(q):
            for u in range(q):
                for v in range(q):
                    d[u][v] = min(d[u][v], d[u][w] + d[w][v])
        got = ms.path_projection(g, n)
        ref = brute_walks(q, n, g.has_edge)
        assert got == ref and list(got) == sorted(ref), case
        got = ms.lambda_projection(g, n, lam)
        ref = brute_walks(q, n, lambda a, b: d[a][b] <= lam)
        assert got == ref and list(got) == sorted(ref), case


def test_projections_and_substitution_refuse_providers(monkeypatch):
    tree = tree_provider(3)
    for call in (lambda: ms.path_projection(tree, 2),
                 lambda: ms.lambda_projection(tree, 2, 1),
                 lambda: ms.edge_substitute(FiniteGraph(2, [(0, 1)]), 0, 1,
                                            {(0, 1): {}}, tree)):
        with pytest.raises(ValidationError, match="finite graph"):
            call()
    # the walks come from the budgeted join, so a long path exits 2
    monkeypatch.setattr(ms.quantiso, "SIGNATURE_BUDGET_BYTES", 1000)
    with pytest.raises(BudgetExceeded):
        ms.path_projection(c4(), 6)


def test_projections_refuse_a_negative_length():
    for call in (lambda n: ms.path_projection(c4(), n),
                 lambda n: ms.lambda_projection(c4(), n, 1)):
        for n in (-1, -2):
            with pytest.raises(ValidationError, match="n = %d" % n):
                call(n)


def test_higher_arity_refused_on_windows():
    with pytest.raises(ValidationError):
        ms.generate_mor(tree_provider(3), 2, 2,
                        window={"radius": 4, "guard": 2})


def test_ibf_isometries():
    b = ms.generate_mor(c4(), 1, 1, category="planar")
    p = [q for q in ms.minimal_projections(b) if q.d_left == 2][0]
    iso, worst = ms.ibf_basis(c4(), p, 2)
    assert iso and worst < 1e-9


# Loop forms of the ladder's tuple operations, kept as the reference for
# the broadcast forms in ColumnLadder.

def loop_dup(arr, q, M, p):
    import numpy as np
    out = np.zeros((q,) * (M + 1), dtype=np.int64)
    for v in range(q):
        dst = [slice(None)] * (M + 1)
        src = [slice(None)] * M
        if p == M:  # duplicate the closing vertex i0 at the end
            dst[0] = v
            dst[M] = v
            src[0] = v
        else:
            dst[p] = v
            dst[p + 1] = v
            src[p] = v
        out[tuple(dst)] = arr[tuple(src)]
    return out


def loop_scale_edge(arr, q, M, t, w):
    import numpy as np
    a, b = t, (t + 1) % M
    out = np.zeros_like(arr)
    if a == b:  # loop of length one: the edge is (i0, i0)
        for v in range(q):
            out[v] = arr[v] * w[v, v]
        return out
    for u in range(q):
        for v in range(q):
            if w[u, v] == 0:
                continue
            idx = [slice(None)] * M
            idx[a] = u
            idx[b] = v
            out[tuple(idx)] = arr[tuple(idx)] * w[u, v]
    return out


def loop_wedge(x, kx, y, ky, q):
    import numpy as np
    out = np.zeros((q,) * (kx + ky), dtype=np.int64)
    for v in range(q):
        dst = [slice(None)] * (kx + ky)
        dst[0] = v
        dst[kx] = v
        out[tuple(dst)] = np.multiply.outer(x[v], y[v])
    return out


def test_ladder_tuple_operations_match_their_loop_forms():
    import numpy as np
    lad = ms.ColumnLadder(p3(), "planar", max_level=2)
    q = lad.q
    rng = np.random.default_rng(3)

    def draw(M):
        # zeros included, so skipped and written entries both show
        return rng.integers(-3, 4, size=(q,) * M, dtype=np.int64)

    for M in range(1, 5):
        arr = draw(M)
        for p in range(M + 1):
            assert np.array_equal(lad._dup(arr, M, p),
                                  loop_dup(arr, q, M, p))
        for t in range(M):
            w = draw(2)
            assert np.array_equal(lad._scale_edge(arr, M, t, w),
                                  loop_scale_edge(arr, q, M, t, w))
        for ky in range(1, 5):
            other = draw(ky)
            assert np.array_equal(lad._wedge(arr, M, other, ky),
                                  loop_wedge(arr, M, other, ky, q))


def test_ladder_gathers_at_the_entry_bound_do_not_wrap():
    import numpy as np
    # levels are stored as int64 orbit rows; the gathers' products and
    # sums of entries below the ladder entry bound do not wrap
    lad = ms.ColumnLadder(p3(), "planar", max_level=4)
    assert all(row.dtype == np.int64 for level in lad.levels.values()
               for row in level)
    q = lad.q
    top = ms.LADDER_ENTRY_BOUND - 1
    big = np.full((q, q), top, dtype=np.int64)
    row = np.append(0, np.full(len(lad.reps[2]), top))
    lad._begin(4)
    try:
        wedged = lad._wedged(row, 2, row, 2)
        assert np.array_equal(
            wedged, loop_wedge(big, 2, big, 2, q).ravel()[lad.reps[4]])
        assert int(wedged.max()) == top * top
        assert np.array_equal(lad._capped(2, row, 1),
                              np.full(len(lad.reps[1]), q * top))
        assert np.array_equal(lad._scaled(lad._scale_edge, 2, row, 0,
                                          big[None]),
                              np.full((1, len(lad.reps[2])), top * top))
    finally:
        lad._end()


def test_ladder_entry_bound_checks_accepted_levels(monkeypatch):
    import numpy as np
    # the function engine's atom seeds have entries 1, and so does every
    # level they generate on the small graphs; a larger accepted entry
    # must still meet the bound before it is stored as int32
    lad = ms.ColumnLadder(p3(), "planar", max_level=2)
    lad.spans = {2: ms.SpanModP(len(lad.reps[2]))}
    monkeypatch.setattr(ms, "LADDER_ENTRY_BOUND", 2)
    with pytest.raises(BudgetExceeded, match="ladder entry bound 2"):
        lad._add(2, 2 * np.eye(3, dtype=np.int64))


# Aut-orbit coordinates of the ladder

ORBIT_GRAPHS = {"K3": k3, "P3": p3, "K4": k4, "C4": c4, "K1,3": star}
_ladders = {}


def orbit_ladder(name, category, identity=False):
    """The max_level 5 ladder of an ORBIT_GRAPHS entry, built once; with
    `identity`, built with the identity as its only automorphism, so
    that every tuple is its own representative and its orbit rows are
    the full arrays."""
    key = (name, category, identity)
    if key not in _ladders:
        with pytest.MonkeyPatch.context() as mp:
            if identity:
                mp.setattr(ms, "classical_aut", lambda g: (
                    [tuple(range(g.vertex_count))], None))
            _ladders[key] = ms.ColumnLadder(ORBIT_GRAPHS[name](), category,
                                            max_level=5)
    return _ladders[key]


def expanded(lad, M):
    """Every element of ladder level M as a full array over V^max(M, 1),
    stacked, read through `elements`."""
    import numpy as np
    shape = lad._shape(M)
    return lad.elements(M, len(lad.levels[M]),
                        np.arange(np.prod(shape)).reshape(shape))


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("name", sorted(ORBIT_GRAPHS))
def test_ladder_arrays_are_fixed_by_every_automorphism(name, category):
    import numpy as np
    # rows read through the least images are invariant by construction;
    # the identity-group ladder computes every tuple, so its invariance
    # is the closure's
    lad = orbit_ladder(name, category, identity=True)
    auts, _orb = classical_aut(lad.graph)
    for M in lad.levels:
        for arr in expanded(lad, M):
            for perm in auts:
                # (g.a)[g(i)] = a[i] on every tuple i
                moved = np.empty_like(arr)
                moved[np.ix_(*[list(perm)] * arr.ndim)] = arr
                assert np.array_equal(moved, arr)


def least_orbit_indices(g, length):
    """Loop form of the ladder's reps: the least flat index of each
    orbit of the automorphism group on V^length, ascending."""
    auts, _orb = classical_aut(g)
    q = g.vertex_count

    def flat(tup):
        idx = 0
        for v in tup:
            idx = idx * q + v
        return idx

    return sorted({min(flat([p[t] for t in tup]) for p in auts)
                   for tup in product(range(q), repeat=length)})


@pytest.mark.parametrize("name", sorted(ORBIT_GRAPHS))
def test_ladder_reps_count_the_orbits(name):
    lad = orbit_ladder(name, "planar")
    for M, reps in lad.reps.items():
        assert len(reps) == classical_loop_orbits(lad.graph, max(M, 1))
        assert list(reps) == least_orbit_indices(lad.graph, max(M, 1))


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("name", ["K4", "C4", "K1,3"])
def test_ladder_orbit_coordinates_match_full_coordinates(name, category):
    import numpy as np
    lad = orbit_ladder(name, category)
    # the identity alone gives one representative per tuple: every span
    # sees the full arrays, and no level is full before q^M
    full = orbit_ladder(name, category, identity=True)
    assert all(len(full.reps[M]) == full.q ** max(M, 1) for M in full.reps)
    assert (full.rounds, full.stable) == (lad.rounds, lad.stable)
    for M in lad.levels:
        assert len(full.levels[M]) == len(lad.levels[M])
        assert np.array_equal(expanded(full, M), expanded(lad, M))


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("make", [k4, c4, p4, star])
def test_ladder_ranks_survive_relabeling(make, category):
    import random
    g = make()
    lad = ms.ColumnLadder(g, category, max_level=5)
    perm = list(range(g.vertex_count))
    random.Random(repr((g.undirected_edges(), category))).shuffle(perm)
    moved = FiniteGraph(g.vertex_count,
                        [(perm[u], perm[v]) for u, v in g.undirected_edges()])
    other = ms.ColumnLadder(moved, category, max_level=5)
    assert ([len(a) for a in other.levels.values()],
            other.rounds, other.stable) == \
        ([len(a) for a in lad.levels.values()], lad.rounds, lad.stable)
    assert [ms.generate_mor(moved, n, m, category=category).rank
            for n, m in served_pairs()] == \
        [ms.generate_mor(g, n, m, category=category).rank
         for n, m in served_pairs()]


def k2():
    return FiniteGraph(2, [(0, 1)])


def c6():
    return FiniteGraph(6, [(v, (v + 1) % 6) for v in range(6)])


def k5():
    return FiniteGraph(5, [(u, v) for u in range(5)
                           for v in range(u + 1, 5)])


# planar level 4 reaches the Burnside count B_4 on these graphs, which
# have no quantum symmetry; K4, C4 and K5 have quantum symmetry, so their
# planar level 4 stays below it (K4: 14 < 15, C4: 35 < 36)
CERTIFIED = [k2, k3, p3, p4, star, c5, c6]
UNCERTIFIED = [k4, c4, k5]


@pytest.mark.parametrize("make", CERTIFIED)
def test_classical_certificate_holds_without_quantum_symmetry(make):
    g = make()
    assert ms.classical_certificate(g) == classical_aut(g)[0]
    assert ms.mor_engine(g).sizes[4] == classical_loop_orbits(g, 4)


@pytest.mark.parametrize("make", UNCERTIFIED)
def test_classical_certificate_fails_with_quantum_symmetry(make):
    g = make()
    assert ms.classical_certificate(g) is None
    assert ms.mor_engine(g).sizes[4] < classical_loop_orbits(g, 4)


@pytest.mark.parametrize("make", CERTIFIED + UNCERTIFIED)
def test_classical_certificate_survives_relabeling(make):
    import random
    g = make()
    perm = list(range(g.vertex_count))
    random.Random(repr(g.undirected_edges())).shuffle(perm)
    moved = FiniteGraph(g.vertex_count,
                        [(perm[u], perm[v]) for u, v in g.undirected_edges()])
    held = ms.classical_certificate(g) is not None
    assert held == (make in CERTIFIED)
    got = ms.classical_certificate(moved)
    assert got == (classical_aut(moved)[0] if held else None)


# one ladder per graph and category, extended instead of rebuilt

def stacked_rank(M, *ladders):
    """Rank modulo the span prime of the level-M elements of several
    ladders of one graph together, in the first one's orbit
    coordinates."""
    reps = ladders[0].reps[M]
    span = ms.SpanModP(len(reps))
    for lad in ladders:
        for vec in lad.elements(M, len(lad.levels[M]), reps):
            span.add(vec)
    return span.rank


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("make, low, high", [(k4, 5, 7), (p3, 5, 7),
                                             (c4, 5, 6)],
                         ids=["K4", "P3", "C4"])
def test_extended_ladder_equals_a_fresh_build(make, low, high, category):
    lad = ms.ColumnLadder(make(), category, max_level=low)
    lad.extend(high)
    fresh = ms.ColumnLadder(make(), category, max_level=high)
    assert lad.max_level == high and lad.stable and fresh.stable
    for M in range(high + 1):
        # equal ranks, and the two bases span one space
        assert len(lad.levels[M]) == len(fresh.levels[M])
        assert stacked_rank(M, lad, fresh) == len(fresh.levels[M])
    if make is k4 and category == "planar":
        assert [len(lad.levels[M]) for M in range(8)] == \
            [1, 1, 2, 5, 14, 42, 132, 428]


def test_stopped_extension_keeps_its_level_and_retries(monkeypatch):
    lad = ms.ColumnLadder(k4(), "planar", max_level=5)
    monkeypatch.setattr(ms, "LADDER_ENTRY_BOUND", 1)
    with pytest.raises(BudgetExceeded, match="ladder entry bound 1"):
        lad.extend(7)
    assert lad.max_level == 5
    assert not hasattr(lad, "spans")
    monkeypatch.undo()
    lad.extend(7)
    assert lad.max_level == 7 and lad.stable
    assert [len(lad.levels[M]) for M in range(8)] == \
        [1, 1, 2, 5, 14, 42, 132, 428]


# candidates in orbit coordinates

def invariant_array(rng, auts, shape):
    """A random integer array fixed by every automorphism: the sum of
    one random array moved by each of them."""
    import numpy as np
    a = rng.integers(-3, 4, size=shape)
    total = np.zeros(shape, dtype=np.int64)
    for perm in auts:
        moved = np.empty_like(a)
        moved[np.ix_(*[list(perm)] * a.ndim)] = a
        total += moved
    return total


def check_gathers(lad, auts, top=5):
    """Every closure operation's orbit row, gathered from its operands'
    orbit rows, equals its broadcast method read at the
    representatives."""
    import numpy as np
    rng = np.random.default_rng(5)
    arrs = {M: invariant_array(rng, auts, lad._shape(M))
            for M in range(top + 1)}
    rows = {M: np.append(0, a.ravel()[lad.reps[M]]) for M, a in arrs.items()}

    def at(K, out):
        return np.ravel(out)[lad.reps[K]]

    lad._begin(top)
    try:
        for M in range(1, top + 1):
            arr, row = arrs[M], rows[M]
            moves = [(M, lad._reverse, (M,))]
            moves += [(M, lad._rotate, (M,))] if M >= 2 else []
            moves += [(M, np.swapaxes, (p, p + 1)) for p in range(1, M - 1)]
            moves += [(M + 1, lad._dup, (M, p))
                      for p in range(M + 1) if M < top]
            moves += [(M - 1, lad._merge, (M, p)) for p in range(1, M)]
            for K, op, rest in moves:
                assert np.array_equal(lad._moved(K, op, M, row, *rest),
                                      at(K, op(arr, *rest)))
            for p in range(1, M):
                assert np.array_equal(lad._capped(M, row, p),
                                      at(M - 1, lad._cap(arr, p)))
            for op, vs in ((lad._scale_edge, lad.f1_mats),
                           (lad._scale_vertex, lad.f0_vecs)):
                for t in range(M):
                    for v, got in zip(vs, lad._scaled(op, M, row, t, vs)):
                        assert np.array_equal(got, at(M, op(arr, M, t, v)))
            for ky in range(1, top - M + 1):
                assert np.array_equal(
                    lad._wedged(row, M, rows[ky], ky),
                    at(M + ky, lad._wedge(arr, M, arrs[ky], ky)))
    finally:
        lad._end()


@pytest.mark.parametrize("category", ["planar", "all"])
@pytest.mark.parametrize("name", ["K4", "C4", "P3", "K1,3"])
def test_ladder_gathers_match_the_broadcast_operations(name, category):
    lad = orbit_ladder(name, category)
    check_gathers(lad, classical_aut(lad.graph)[0])


def test_ladder_gathers_with_every_tuple_its_own_representative(
        monkeypatch):
    identity = [(0, 1, 2)]
    monkeypatch.setattr(ms, "classical_aut", lambda g: (identity, None))
    lad = ms.ColumnLadder(p3(), "planar", max_level=5)
    assert all(len(lad.reps[M]) == 3 ** max(M, 1) for M in lad.reps)
    check_gathers(lad, identity)


# sha256 prefixes of the bytes of level M's full arrays, stacked as
# int32, M = 0, 1, ..., frozen from a closure that built every candidate
# as a full array and stored it as int32
LADDER_FINGERPRINTS = [
    (k4, "planar", ["1b897dddd4c151e2", "1b897dddd4c151e2",
                    "f3ca92af4fecd2f9", "237a607b08e82beb",
                    "bbbf7bbd2a5db3a0", "dbef31aeeb4190cc",
                    "c16409546bb22d16", "6125e154c00460ff"]),
    (c4, "all", ["1b897dddd4c151e2", "1b897dddd4c151e2", "26ffb9badaaccf89",
                 "3d0f1f9abb3ea8db", "f6872f98ad60bb7f", "6e063138cea2d711",
                 "e3ce4004c091e104"]),
    (p3, "planar", ["605390e5a369ee56", "605390e5a369ee56",
                    "28321cf8841200c6", "e9d1727b450ce93c",
                    "4ed83ae4fe51286d", "2590e654b4b2265b",
                    "926330332e9b44d6"]),
]


@pytest.mark.parametrize("make, category, prints", LADDER_FINGERPRINTS,
                         ids=["K4", "C4", "P3"])
def test_ladder_arrays_are_frozen(make, category, prints):
    import hashlib
    import numpy as np
    lad = ms.ColumnLadder(make(), category, max_level=len(prints) - 1)
    assert [hashlib.sha256(expanded(lad, M).astype(np.int32).tobytes())
            .hexdigest()[:16] for M in range(len(prints))] == prints


def held_bytes(lad):
    """What the ladder counts against its budget between closures: the
    least images (level 1 shares level 0's) and every stored row."""
    return (sum(lad.least[M].nbytes for M in lad.least if M != 1)
            + sum(row.nbytes for rows in lad.levels.values()
                  for row in rows))


def test_ladder_budget_stops_before_allocating(monkeypatch):
    lad = ms.ColumnLadder(k4(), "planar", max_level=5)
    assert lad.held == held_bytes(lad)
    # level 7 holds 428 orbit rows of 716 int64 entries, and the span a
    # reduced copy of each (about 4.9 MB)
    monkeypatch.setattr(ms, "LADDER_BUDGET_BYTES", lad.held + 2 ** 20)
    with pytest.raises(BudgetExceeded, match="LADDER_BUDGET_BYTES"):
        lad.extend(7)
    assert lad.max_level == 5 and not hasattr(lad, "spans")
    assert lad.held == held_bytes(lad) <= ms.LADDER_BUDGET_BYTES
    # the least images of levels 0-7 alone take 8 * 21,844 bytes
    monkeypatch.setattr(ms, "LADDER_BUDGET_BYTES", 10 ** 5)
    with pytest.raises(BudgetExceeded, match="LADDER_BUDGET_BYTES"):
        ms.ColumnLadder(k4(), "planar", max_level=7)
    monkeypatch.undo()
    lad.extend(7)
    assert lad.held == held_bytes(lad)
    assert [len(lad.levels[M]) for M in range(8)] == \
        [1, 1, 2, 5, 14, 42, 132, 428]


def test_ladder_budget_counts_the_least_image_transient(monkeypatch):
    lad = ms.ColumnLadder(k4(), "planar", max_level=5)
    budget = ms.LADDER_BUDGET_BYTES
    calls = []
    real = ms.least_images

    def counted(auts, q, k):
        calls.append(k)
        return real(auts, q, k)

    monkeypatch.setattr(ms, "least_images", counted)
    # least_images(6) holds about three arrays of 4^6 int64 entries while
    # it runs and keeps one; the budget leaves room for two
    monkeypatch.setattr(ms, "LADDER_BUDGET_BYTES",
                        lad.held + 2 * 8 * 4 ** 6)
    with pytest.raises(BudgetExceeded, match="LADDER_BUDGET_BYTES"):
        lad.extend(6)
    assert calls == [] and lad.max_level == 5
    assert lad.held == held_bytes(lad)
    monkeypatch.setattr(ms, "LADDER_BUDGET_BYTES", budget)
    lad.extend(6)
    assert calls == [6] and lad.held == held_bytes(lad)
