"""Tests for the Hopf *-algebra model and Haar functionals."""

import itertools
import random

import numpy as np
import pytest

from qgs.graphs import (ValidationError, classical_aut, complete_graph,
                        cycle_graph, path_graph, tree_provider)
from qgs.algebra import (ComponentSystem, add_into, counit, delta_checks,
                         f_elem, f_symbol, haar_system,
                         inner_product_formula, kappa, multiply, phi,
                         rho_map, star, u_word, word, word_mul, word_star)
from qgs.morspace import mat_tilde, rel_tensor

_component_systems = {}


def component_system(g):
    key = (g.vertex_count, tuple(g.undirected_edges()))
    if key not in _component_systems:
        _component_systems[key] = ComponentSystem(g, max_arity=2)
    return _component_systems[key]


def rand_f_element(rng, cs, arity, terms=3):
    mat = {}
    q = cs.graph.vertex_count
    for _ in range(terms):
        p = tuple(rng.randrange(q) for _ in range(arity + 1))
        qq = tuple(rng.randrange(q) for _ in range(arity + 1))
        mat[(p, qq)] = mat.get((p, qq), 0) + rng.randint(-2, 2)
    return cs.decompose(arity, mat)


def rand_word(rng, q, max_len=2, coef_range=3):
    n = rng.choice(range(1, max_len + 1))
    i = tuple(rng.randrange(q) for _ in range(n))
    j = tuple(rng.randrange(q) for _ in range(n))
    return word(i, j, rng.randint(-coef_range, coef_range))


def rand_element(rng, q, terms=4, max_len=2):
    x = {}
    for _ in range(terms):
        add_into(x, rand_word(rng, q, max_len))
    return x


def rand_f_word(rng, hs, arity, start=None):
    """A random admissible path symbol of the given arity."""
    q = hs.q
    for _ in range(2000):
        if start is None:
            p0 = rng.randrange(q)
            q0 = rng.choice(hs.orbit_members(hs.orbit_of(p0)))
        else:
            p0, q0 = start
        p, qq = [p0], [q0]
        ok = True
        for _ in range(arity):
            u = rng.randrange(q)
            cands = [v for v in hs.orbit_members(hs.orbit_of(u))
                     if hs.dist[qq[-1]][v] == hs.dist[p[-1]][u]]
            if not cands:
                ok = False
                break
            p.append(u)
            qq.append(rng.choice(cands))
        if ok and not hs.f_is_zero(tuple(p), tuple(qq)):
            return {(tuple(p), tuple(qq)): 1}
    raise AssertionError("no admissible path symbol found")


def test_word_operations():
    x = word((0, 1), (2, 3), 2)
    y = word((1,), (0,), 3)
    assert word_mul(x, y) == {((0, 1, 1), (2, 3, 0)): 6}
    assert word_star(x) == {((1, 0), (3, 2)): 2}
    assert mat_tilde(x) == {((3, 2), (1, 0)): 2}
    assert counit(word((0, 1), (0, 1))) == 1
    assert counit(x) == 0
    # the antipode is an anti-homomorphism
    assert mat_tilde(word_mul(x, y)) == word_mul(mat_tilde(y), mat_tilde(x))
    # star reverses products
    assert word_star(word_mul(x, y)) == word_mul(word_star(y), word_star(x))


def test_f_word_operations():
    x = {((0, 1), (2, 3)): 2}
    y = {((1, 0), (3, 2)): 3}
    assert rel_tensor(x, y) == {((0, 1, 0), (2, 3, 2)): 6}
    # mismatched boundary kills the product
    assert rel_tensor(x, {((0, 1), (3, 2)): 1}) == {}
    assert word_star(x) == {((1, 0), (3, 2)): 2}


def test_zero_rules():
    hs = haar_system(path_graph(3))
    # orbit rule: the centre is alone in its orbit
    assert hs.word_is_zero((1,), (0,))
    assert not hs.word_is_zero((0,), (2,))
    # distance rule
    assert hs.word_is_zero((0, 2), (0, 0))
    # weight rule on path symbols: endpoint ratios must agree
    assert hs.f_is_zero((0, 1), (1, 0))


def test_phi_unit_oracle():
    # phi_e(u_ij) equals mu_j / mu_e when i and j share an orbit, else 0
    for g in (complete_graph(3), path_graph(3)):
        hs = haar_system(g)
        for e in range(hs.q):
            for i in range(hs.q):
                for j in range(hs.q):
                    got = hs.phi_e(word((i,), (j,)), e)
                    if hs.orbit_of(i) == hs.orbit_of(j):
                        want = float(hs.mu[j] / hs.mu[e])
                    else:
                        want = 0.0
                    assert abs(got - want) < 1e-12


def test_phi_f_diagonal_projections():
    hs = haar_system(path_graph(3))
    for i in range(3):
        for j in range(3):
            got = hs.phi_f({((i,), (j,)): 1})
            want = 1.0 if hs.orbit_of(i) == hs.orbit_of(j) else 0.0
            assert abs(got - want) < 1e-12


def test_closed_form_matches_direct():
    hs = haar_system(complete_graph(3))
    for s, t in itertools.product(range(3), repeat=2):
        for i in itertools.product(range(3), repeat=2):
            for j in itertools.product(range(3), repeat=2):
                b = word((s,) + i + (t,), (0,) + j + (0,))
                assert abs(hs.phi_e(b, 0)
                           - hs.haar_closed_form(s, t, i, j, 0)) < 1e-12


@pytest.mark.parametrize("make", [lambda: complete_graph(3),
                                  lambda: path_graph(3),
                                  lambda: cycle_graph(4),
                                  lambda: complete_graph(4)])
def test_left_invariance(make):
    hs = haar_system(make())
    assert hs.left_invariance_residual(0, n_max=2) < 1e-9


def test_positivity():
    rng = random.Random(5)
    for g in (complete_graph(3), path_graph(3)):
        hs = haar_system(g)
        for _ in range(40):
            x = rand_element(rng, hs.q)
            assert hs.phi_e(word_mul(word_star(x), x), 0) >= -1e-9


def test_phi_e_tracial():
    rng = random.Random(9)
    hs = haar_system(path_graph(3))
    for _ in range(40):
        x = rand_element(rng, hs.q, terms=2)
        y = rand_element(rng, hs.q, terms=2)
        assert abs(hs.phi_e(word_mul(x, y), 0)
                   - hs.phi_e(word_mul(y, x), 0)) < 1e-9


def test_trace_property_path_symbols():
    # phi(xy) = phi(y rho(x)) with the endpoint-ratio automorphism rho
    rng = random.Random(3)
    hs = haar_system(path_graph(3))
    for _ in range(60):
        x = rand_f_word(rng, hs, rng.choice([1, 2, 3]))
        (p, q), = x.keys()
        y = rand_f_word(rng, hs, rng.choice([1, 2, 3]),
                        start=(p[-1], q[-1]))
        lhs = hs.phi_f(rel_tensor(x, y))
        rhs = hs.phi_f(rel_tensor(y, hs.rho_f(x)))
        assert abs(lhs - rhs) < 1e-9


def test_modular_element():
    # psi_e(a) = phi_e(a delta), with delta acting by weight ratios
    hs = haar_system(path_graph(3))
    assert hs.mu[1] == 2 * hs.mu[0]
    for i in itertools.product(range(3), repeat=2):
        for j in itertools.product(range(3), repeat=2):
            x = word(i, j)
            assert abs(hs.psi_e(x, 0)
                       - hs.phi_e(hs.mul_delta(x), 0)) < 1e-12


def test_base_point_change():
    # phi_e = (mu_f / mu_e) phi_f
    hs = haar_system(path_graph(3))
    for e in range(3):
        for f in range(3):
            scale = float(hs.mu[f] / hs.mu[e])
            for i in itertools.product(range(3), repeat=2):
                for j in itertools.product(range(3), repeat=2):
                    x = word(i, j)
                    assert abs(hs.phi_e(x, e)
                               - scale * hs.phi_e(x, f)) < 1e-12


def test_antipode_strictness():
    # sum_k U_n(i,k) U_n(rev j, rev k) = delta_ij as a multiplier,
    # paired against the units u_ve through phi_e
    for g in (complete_graph(3), path_graph(3)):
        hs = haar_system(g)
        q = hs.q
        for i in itertools.product(range(q), repeat=2):
            for j in itertools.product(range(q), repeat=2):
                for v in range(q):
                    if hs.word_is_zero((v,), (0,)):
                        continue
                    acc = {}
                    for k in itertools.product(range(q), repeat=2):
                        term = word_mul(word(i, k), word(j[::-1], k[::-1]))
                        add_into(acc, word_mul(term, word((v,), (0,))))
                    got = hs.phi_e(acc, 0)
                    want = (1.0 if i == j else 0.0) * hs.phi_e(
                        word((v,), (0,)), 0)
                    assert abs(got - want) < 1e-9


def test_component_completeness():
    # the isometric bases reproduce the identity at every bounded arity
    for g in (complete_graph(3), path_graph(3)):
        cs = component_system(g)
        for n in range(3):
            assert cs.completeness_residual(n) < 1e-9


def test_f_symbol_projections():
    cs = component_system(path_graph(3))
    # phi(F_0(i,j)) = 1 when the vertices share an orbit, else the
    # symbol itself vanishes
    hs = haar_system(path_graph(3))
    for i in range(3):
        for j in range(3):
            x = f_symbol(cs, 0, (i,), (j,))
            if hs.orbit_of(i) == hs.orbit_of(j):
                assert abs(phi(x) - 1.0) < 1e-9
                assert multiply(x, x).close_to(x)
            else:
                assert x.is_zero()
    # distinct diagonal projections are orthogonal
    a = f_symbol(cs, 0, (0,), (2,))
    b = f_symbol(cs, 0, (1,), (1,))
    assert multiply(a, b).is_zero()


def test_f_symbol_distance_rule():
    cs = component_system(path_graph(3))
    # mismatched consecutive distances give the zero element
    assert f_symbol(cs, 1, (0, 2), (0, 0)).is_zero()


def test_star_involution():
    rng = random.Random(17)
    cs = component_system(path_graph(3))
    for _ in range(25):
        x = rand_f_element(rng, cs, rng.choice([0, 1]))
        assert star(star(x)).close_to(x)


def test_component_idempotents():
    # re-decomposing a single component reproduces it; distinct
    # components project to zero under each other
    rng = random.Random(23)
    cs = component_system(path_graph(3))
    for _ in range(10):
        x = rand_f_element(rng, cs, 1)
        for ident, comp in x.components.items():
            k = cs.irr(ident).k
            again = cs.decompose(k, comp)
            assert set(again.components) <= {ident}
            piece = again.components.get(ident, {})
            for key in set(comp) | set(piece):
                assert abs(comp.get(key, 0) - piece.get(key, 0)) < 1e-9


def test_first_formula():
    # phi(x y*) = sum_alpha d_l(alpha)^{-1} <theta_alpha(x), theta_alpha(y)>
    rng = random.Random(31)
    cs = component_system(path_graph(3))
    for _ in range(40):
        x = rand_f_element(rng, cs, 1)
        y = rand_f_element(rng, cs, 1)
        assert abs(phi(multiply(x, star(y)))
                   - inner_product_formula(x, y)) < 1e-9


def test_trace_property_components():
    # phi(xy) = phi(y rho(x)) with rho scaling components by d_r / d_l
    rng = random.Random(37)
    cs = component_system(path_graph(3))
    for _ in range(40):
        x = rand_f_element(rng, cs, 1)
        y = rand_f_element(rng, cs, 1)
        assert abs(phi(multiply(x, y))
                   - phi(multiply(y, rho_map(x)))) < 1e-9


def test_phi_kappa_invariance():
    rng = random.Random(41)
    cs = component_system(path_graph(3))
    for _ in range(25):
        x = rand_f_element(rng, cs, rng.choice([0, 1]))
        assert abs(phi(x) - phi(kappa(x))) < 1e-9


def test_phi_components_matches_kernel():
    # two independent routes to phi agree: component decomposition vs
    # the corner projection kernel
    cs = component_system(path_graph(3))
    hs = haar_system(path_graph(3))
    for p in itertools.product(range(3), repeat=2):
        for q in itertools.product(range(3), repeat=2):
            key = ((p[0], p[1], p[0]), (q[0], q[1], q[0]))
            got = phi(cs.decompose(2, {key: 1.0}))
            want = hs.phi_f({key: 1})
            assert abs(got - want) < 1e-9


def test_u_word_corner_image():
    cs = component_system(path_graph(3))
    # u_ij vanishes exactly when the vertices lie in different orbits
    assert u_word(cs, 0, [((0,), (1,))]).is_zero()
    assert not u_word(cs, 0, [((0,), (2,))]).is_zero()
    # u_ij u_ik = 0 for j != k (rows are orthogonal projections)
    x = multiply(u_word(cs, 0, [((0,), (0,))]),
                 u_word(cs, 0, [((0,), (2,))]))
    assert x.is_zero()


def test_f_elem_bilinear():
    cs = component_system(path_graph(3))
    x = f_elem(cs, 0, {(0,): 1, (2,): 1}, {(0,): 1})
    y1 = f_symbol(cs, 0, (0,), (0,))
    y2 = f_symbol(cs, 0, (2,), (0,))
    acc = {}
    for ident in set(y1.components) | set(y2.components):
        merged = dict(y1.components.get(ident, {}))
        for key, val in y2.components.get(ident, {}).items():
            merged[key] = merged.get(key, 0) + val
        acc[ident] = merged
    from qgs.algebra import AlgebraElement
    assert x.close_to(AlgebraElement(cs, acc))


def test_delta_checks_report():
    rep = delta_checks(path_graph(3), 0, 1)
    assert rep["modular_residual"] < 1e-9
    assert rep["base_change_residual"] < 1e-9
    assert rep["unimodular"] is True
    assert rep["delta_ratios"] == ["1"]


def test_provider_rejected():
    from qgs.algebra import HaarSystem
    with pytest.raises(ValidationError):
        HaarSystem(tree_provider(3))


def test_word_length_guard():
    hs = haar_system(complete_graph(3))
    long_i = tuple(0 for _ in range(hs.max_level))
    with pytest.raises(ValidationError):
        hs.phi_e(word(long_i, long_i), 0)


def classical_haar(auts, i, j, e):
    """phi_e(U(i, j)) on the classical group: the share of automorphisms
    p with p(j_k) = i_k for every k, over the share fixing e."""
    hits = sum(all(p[b] == a for a, b in zip(i, j)) for p in auts)
    stab = sum(p[e] == e for p in auts)
    return hits / stab


def test_category_all_haar_is_classical_on_a_crossing_word():
    # on K4 the planar value is 1/5 (S4+); the crossing gives Aut = S4
    g = complete_graph(4)
    hs = haar_system(g, "all", 6)
    i = j = (0, 1, 0, 1)
    auts, _orb = classical_aut(g)
    assert abs(hs.phi_e(word(i, j), 0) - classical_haar(auts, i, j, 0)) \
        < 1e-12


def test_haar_on_c5_is_the_classical_haar():
    # C5 has no quantum symmetry: the certificate holds, and phi_e is the
    # Haar functional of Aut(C5) = D5 on every word of length <= 2
    g = cycle_graph(5)
    hs = haar_system(g)
    auts, _orb = classical_aut(g)
    assert hs.auts == auts
    for e in range(5):
        for n in (1, 2):
            for i in itertools.product(range(5), repeat=n):
                for j in itertools.product(range(5), repeat=n):
                    assert abs(hs.phi_e(word(i, j), e)
                               - classical_haar(auts, i, j, e)) < 1e-12


@pytest.mark.parametrize("make", [lambda: complete_graph(3),
                                  lambda: path_graph(3)])
def test_orbit_route_equals_gram_route(make, monkeypatch):
    import numpy as np
    from qgs import algebra
    g = make()
    orbit = algebra.HaarSystem(g)
    assert orbit.auts is not None
    # the Gram route, forced by a failing certificate
    monkeypatch.setattr(algebra, "classical_certificate",
                        lambda graph, category: None)
    gram = algebra.HaarSystem(g)
    assert gram.auts is None
    q = g.vertex_count
    # kernel values at every trusted level, on sampled loop pairs
    rng = np.random.default_rng(3)
    for M in range(1, orbit.max_level):
        for a, members in enumerate(orbit.orbits.classes):
            block = q ** (M - 1)
            p = (rng.choice(members, 500) * block
                 + rng.integers(0, block, 500))
            r = (rng.choice(members, 500) * block
                 + rng.integers(0, block, 500))
            assert np.abs(orbit.kernel_values(M, a, p, r)
                          - gram.kernel_values(M, a, p, r)).max() < 1e-12
    for n in (1, 2):
        for i in itertools.product(range(q), repeat=n):
            for j in itertools.product(range(q), repeat=n):
                x = word(i, j)
                assert abs(orbit.phi_e(x, 0) - gram.phi_e(x, 0)) < 1e-12
                y = {((0,) + i + (0,), (j[-1],) + j + (j[-1],)): 1}
                assert abs(orbit.phi_f(y) - gram.phi_f(y)) < 1e-12
    for e in range(q):
        assert abs(orbit.left_invariance_residual(e, n_max=2)
                   - gram.left_invariance_residual(e, n_max=2)) < 1e-12


def test_gram_constancy_check_raises_on_a_merged_orbit():
    # P3's quantum orbits {0, 2} and {1} merged into one class: the
    # corner Grams at basepoints 0 and 1 differ
    from qgs import algebra
    from qgs.morspace import OrbitPartition
    merged = OrbitPartition([[0, 1, 2]], "planar", "exact", True, None)
    kernel = algebra._GramKernel(path_graph(3), "planar", 3, merged)
    with pytest.raises(ValidationError, match="not constant"):
        kernel.values(1, 0, np.array([0]), np.array([1]))


@pytest.mark.parametrize("make, rows_at_6", [(lambda: complete_graph(4), 187),
                                             (lambda: cycle_graph(4), 528)],
                         ids=["K4", "C4"])
def test_gram_corner_has_one_row_per_orbit(make, rows_at_6):
    hs = haar_system(make())
    assert hs.auts is None
    kernel = hs._kernel
    q = hs.q
    for M in range(1, hs.max_level):
        block = q ** (M - 1)
        for a, members in enumerate(hs.orbits.classes):
            index, left, right = kernel._corner(M, a)
            reps = [r for r in kernel.ladder.reps[M] if r // block in members]
            # one factor row per Aut-orbit based in a, and a zero row
            # that tuples based elsewhere read
            assert left.shape[0] == right.shape[0] == len(reps) + 1
            assert list(index[reps]) == list(range(len(reps)))
            assert not left[-1].any() and not right[-1].any()
            if M == 6:
                assert len(reps) == rows_at_6 < q ** M


def test_gram_route_extends_the_certificate_ladder(monkeypatch):
    # K4 fails the certificate: both Haar systems extend the ladder that
    # the certificate built to level 5, and no other ladder is made
    from qgs import algebra, morspace
    monkeypatch.setattr(morspace, "_mor_engines", {})
    monkeypatch.setattr(algebra, "_systems", {})
    made = []

    class Counted(morspace.ColumnLadder):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(morspace, "ColumnLadder", Counted)
    g = complete_graph(4)
    six = haar_system(g, "planar", 6)
    seven = haar_system(g, "planar", 7)
    assert six.auts is None and seven.auts is None
    assert len(made) == 1
    ladder = morspace.mor_engine(g, "planar").ladder
    assert six._kernel.ladder is seven._kernel.ladder is ladder
    assert ladder.max_level == 7
    # level 6 grew when the ladder was extended to 7, but the level-6
    # system still reads the prefix it was made with
    assert six._kernel.sizes[6] == 131 < seven._kernel.sizes[6] == 132


def test_orbit_route_computes_each_level_once(monkeypatch):
    # P3 passes the certificate and has two vertex orbits; its kernels
    # read levels 0-5 off the certificate ladder and compute level 6 once
    from qgs import algebra, morspace
    monkeypatch.setattr(morspace, "_mor_engines", {})
    monkeypatch.setattr(algebra, "_systems", {})
    calls = []
    real = morspace.least_images

    def counted(auts, q, k):
        calls.append(k)
        return real(auts, q, k)

    monkeypatch.setattr(morspace, "least_images", counted)
    monkeypatch.setattr(algebra, "least_images", counted)
    g = path_graph(3)
    hs = haar_system(g, "planar", 7)
    assert hs.auts is not None
    for e in range(3):
        assert hs.left_invariance_residual(e, n_max=2) < 1e-12
    delta_checks(g, 0, 2, "planar", max_level=7)
    assert calls == [1, 2, 3, 4, 5, 6]
