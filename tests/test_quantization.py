"""Tests for relation supports and fiber matrices on Cayley graphs."""

import pytest

from qgs.bilabeled import BiLabeled, compose, relative_tensor
from qgs.graphs import (BudgetExceeded, FiniteGraph, ValidationError,
                        cyclic_group, free_group, free_product_cyclic_group,
                        integers_group)
from qgs.quantization import (FIBER_LAYER_CAP, FIBER_LAYER_VERTICES,
                              FIBER_PAIR_BUDGET, FiberMatrix,
                              cyclic_rotation_report, fiber_matrix,
                              fiber_matrix_csv, fiber_matrix_json,
                              fiber_multiply, fiber_span_rank,
                              is_path_labeled, letter_tensor,
                              noncrossing_even_count, relation_vectors,
                              signed_relation_vectors, split_cycle,
                              triangle_xi, _layers)
from qgs.ratmat import RatSpan


def gen_named(spec, name):
    return dict(spec.generators)[name]


def test_relation_vectors_integers():
    spec = integers_group()
    t = gen_named(spec, "a")
    ti = gen_named(spec, "a^-1")
    xs = relation_vectors(spec, 3)
    assert xs[0].support == frozenset()
    assert xs[1].support == {(t, ti), (ti, t)}
    assert xs[2].support == frozenset()


def test_relation_vectors_involutions():
    spec = free_product_cyclic_group([2, 2])
    a = gen_named(spec, "a")
    b = gen_named(spec, "b")
    xs = relation_vectors(spec, 2)
    assert xs[1].support == {(a, a), (b, b)}


def test_relation_vectors_cyclic3():
    spec = cyclic_group(3)
    xs = relation_vectors(spec, 3)
    assert (1, 1, 1) in xs[2]
    assert (1, 2) in xs[1] and (2, 1) in xs[1]


def test_inverse_reversal_closure():
    spec = free_product_cyclic_group([2, 3])
    for rs in relation_vectors(spec, 4):
        for t in rs.support:
            assert tuple(spec.inverse(s) for s in reversed(t)) in rs


def test_cyclic_rotation_report():
    spec = free_product_cyclic_group([2, 2])
    report = cyclic_rotation_report(relation_vectors(spec, 4))
    assert set(report) == {1, 2, 3, 4}
    assert all(isinstance(v, bool) for v in report.values())


def test_signed_supports_free_group():
    spec = free_group(2)
    f = [gen_named(spec, "a"), gen_named(spec, "b")]
    out = signed_relation_vectors(spec, 2, gens=f)
    by_eps = {rs.epsilon: rs for rs in out if rs.n == 2}
    assert by_eps[(1, -1)].support == {(s, spec.inverse(s)) for s in f}
    assert by_eps[(-1, 1)].support == {(spec.inverse(s), s) for s in f}
    assert by_eps[(1, 1)].support == frozenset()
    assert by_eps[(-1, -1)].support == frozenset()


def test_signed_triple_support_matches_relators():
    # Z/3 with the single generator g: the all-plus triples are exactly
    # the relator (g, g, g)
    spec = cyclic_group(3)
    out = signed_relation_vectors(spec, 3, gens=[1])
    by_eps = {rs.epsilon: rs for rs in out if rs.n == 3}
    assert by_eps[(1, 1, 1)].support == {(1, 1, 1)}


def test_triangle_xi():
    t_set = {("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")}
    rep = triangle_xi(t_set)
    assert rep["size"] == 3
    assert rep["support"] == sorted(t_set)
    assert rep["marginals"][0] == {"a": 1, "b": 1, "c": 1}
    assert triangle_xi(set())["size"] == 0
    with pytest.raises(ValidationError):
        triangle_xi({("a", "b")})


@pytest.fixture(scope="module")
def involutions4():
    return free_product_cyclic_group([2, 2, 2, 2])


def test_fiber_matrix_identity_path(involutions4):
    spec = involutions4
    k = BiLabeled(FiniteGraph(2, [(0, 1)]), (0, 1), (0, 1))
    fm = fiber_matrix(k, spec)
    names = [name for (name, _) in spec.generators]
    for s in names:
        for t in names:
            assert fm[((s,), (t,))] == (1 if s == t else 0)


def test_fiber_matrix_cycle_vector(involutions4):
    spec = involutions4
    fm = fiber_matrix(split_cycle(2, 0), spec)
    names = [name for (name, _) in spec.generators]
    for s in names:
        for t in names:
            assert fm[((s, t), ())] == (1 if s == t else 0)


def test_fiber_matrix_rank_one_outer(involutions4):
    spec = involutions4
    k = compose(split_cycle(2, 0), split_cycle(0, 2))
    fm = fiber_matrix(k, spec)
    names = [name for (name, _) in spec.generators]
    for s1 in names:
        for s2 in names:
            for t1 in names:
                for t2 in names:
                    want = 1 if (s1 == s2 and t1 == t2) else 0
                    assert fm[((s1, s2), (t1, t2))] == want


def test_fiber_matrix_rejects_non_path():
    spec = free_product_cyclic_group([2, 2])
    k = BiLabeled(FiniteGraph(3, [(0, 1), (1, 2)]), (0, 2), (0, 2))
    with pytest.raises(ValidationError):
        fiber_matrix(k, spec)
    assert not is_path_labeled(k)


def test_fiber_functoriality():
    # matrices of composed graphs factor as matrix products, exactly
    spec = integers_group()
    layers = _layers(4, 10, 400)
    cache = {}

    def fm(k):
        if k not in cache:
            cache[k] = fiber_matrix(k, spec)
        return cache[k]

    checked = 0
    for a in layers:
        for b in layers:
            if a.m != b.n:
                continue
            whole = fiber_matrix(compose(a, b), spec)
            prod = fiber_multiply(fm(a), fm(b))
            assert whole.entries == prod.entries
            checked += 1
            if checked >= 100:
                break
        if checked >= 100:
            break
    assert checked >= 100


@pytest.mark.parametrize("spec", [integers_group(),
                                  free_product_cyclic_group([2, 2, 2])],
                         ids=["Z", "Z2*Z2*Z2"])
def test_fiber_relative_tensor(spec):
    # the matrix of a relative tensor is the concatenation tensor of the
    # factors' matrices, exactly
    layers = _layers(4, 10, 400)
    cache = {}

    def fm(k):
        if k not in cache:
            cache[k] = fiber_matrix(k, spec)
        return cache[k]

    # 100 pairs spread over all those with at most 4 letters a side
    pairs = [(b, a) for b in layers for a in layers
             if b.n + a.n <= 6 and b.m + a.m <= 6]
    pairs = pairs[::len(pairs) // 100][:100]
    assert len(pairs) == 100
    for b, a in pairs:
        whole = fiber_matrix(relative_tensor(b, a), spec)
        assert letter_tensor(fm(b).entries, fm(a).entries) == whole.entries


def test_layer_factors_rebuild_each_layer():
    factors = {}
    layers = _layers(4, 10, 400, factors)
    assert layers == _layers(4, 10, 400)
    assert set(factors) == set(layers)
    atoms = [k for k in layers if factors[k] is None]
    assert len(atoms) == 12
    for k in layers:
        if factors[k] is not None:
            b, a = factors[k]
            assert factors[a] is None
            assert relative_tensor(b, a) == k


def test_fiber_matrix_export(involutions4):
    fm = fiber_matrix(split_cycle(1, 1), involutions4)
    doc = fiber_matrix_json(fm)
    assert doc["n"] == 1 and doc["m"] == 1
    assert all(v == 1 for (_, _, v) in doc["entries"])
    text = fiber_matrix_csv(fm)
    assert text.splitlines()[0] == "row,col,value"
    assert len(text.splitlines()) == 1 + len(fm.entries)


def test_span_rank_small(involutions4):
    spec = involutions4
    assert fiber_span_rank(spec, 1, 1)["rank"] == 1
    rep = fiber_span_rank(spec, 2, 2)
    assert rep["rank"] == 3
    assert rep["arithmetic"] == "exact-rational"


# fiber_span_rank's reports when every member was counted on the Cayley
# graph; the functor must reproduce them exactly
FROZEN_REPORTS = [
    ([2, 2, 2], 3, 3, 12, 6096, 7557, False),
    ([2, 2, 2], 2, 2, 3, 233, 104, True),
    ([2, 2, 2], 1, 3, 3, 233, 81, True),
    ([2, 2, 2, 2], 1, 1, 1, 6, 1, True),
    ([2, 2, 2, 2], 2, 2, 3, 233, 104, True),
    ([2, 2, 2, 2], 3, 3, 12, 6096, 7557, False),
    (None, 2, 2, 3, 233, 104, True),
    (None, 1, 3, 3, 233, 81, True),
    (None, 3, 1, 3, 233, 91, True),
]


@pytest.mark.parametrize("orders, n, m, rank, layers, examined, exhausted",
                         FROZEN_REPORTS)
def test_span_rank_reports_frozen(orders, n, m, rank, layers, examined,
                                  exhausted):
    spec = (integers_group() if orders is None
            else free_product_cyclic_group(orders))
    assert fiber_span_rank(spec, n, m) == {
        "n": n, "m": m, "rank": rank, "layers": layers,
        "members_examined": examined, "exhausted": exhausted,
        "arithmetic": "exact-rational"}


def hom_counted_span_rank(spec, n, m):
    """fiber_span_rank with every member's matrix counted on the Cayley
    graph instead of derived from the atoms' matrices."""
    layers = _layers(n + m, FIBER_LAYER_VERTICES, FIBER_LAYER_CAP)
    span = RatSpan()
    examined = 0

    def feed(k):
        nonlocal examined
        examined += 1
        vec = fiber_matrix(k, spec).entries
        if vec:
            span.add(vec)

    direct = [k for k in layers if k.n == n + 1 and k.m == m + 1]
    for k in direct:
        feed(k)
    seen = set(direct)
    pairs = 0
    exhausted = True
    for l1 in [k for k in layers if k.n == n + 1]:
        for l2 in [k for k in layers if k.n == l1.m and k.m == m + 1]:
            pairs += 1
            if pairs > FIBER_PAIR_BUDGET:
                exhausted = False
                break
            cand = compose(l1, l2)
            if cand not in seen:
                seen.add(cand)
                feed(cand)
        if not exhausted:
            break
    return {"n": n, "m": m, "rank": span.rank, "layers": len(layers),
            "members_examined": examined, "exhausted": exhausted,
            "arithmetic": "exact-rational"}


@pytest.mark.parametrize("n, m", [(2, 2), (1, 3)])
def test_span_rank_matches_hom_counting(n, m):
    spec = free_product_cyclic_group([2, 2, 2])
    assert fiber_span_rank(spec, n, m) == hom_counted_span_rank(spec, n, m)


def test_span_rank_respects_partition_bound(involutions4):
    rep = fiber_span_rank(involutions4, 1, 3)
    assert rep["rank"] <= noncrossing_even_count(4)


def test_span_rank_letter_budget(involutions4):
    with pytest.raises(BudgetExceeded):
        fiber_span_rank(involutions4, 7, 7)


def test_noncrossing_even_counts():
    assert noncrossing_even_count(0) == 1
    assert noncrossing_even_count(2) == 1
    assert noncrossing_even_count(4) == 3
    assert noncrossing_even_count(6) == 12
    with pytest.raises(ValidationError):
        noncrossing_even_count(5)
    with pytest.raises(BudgetExceeded):
        noncrossing_even_count(14)


def test_fiber_multiply_shape_check():
    fm = FiberMatrix(None, 1, 2, [], [], {})
    other = FiberMatrix(None, 1, 2, [], [], {})
    with pytest.raises(ValidationError):
        fiber_multiply(fm, other)
