"""Property tests for the exact span kernels RatSpan and SpanModP.

Both kernels reject an input they have been offered before without
eliminating.  Their accept flags and final ranks are compared with a
plain Fraction Gaussian elimination that has no such filter."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from qgs.morspace import SpanModP
from qgs.ratmat import RatSpan


def reference_rank(rows):
    """Rank of a list of equal-length vectors by Fraction elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def reference_flags(vectors):
    """Accept flags of an unfiltered incremental span: True where the
    vector raises the rank of everything offered before it."""
    kept, flags = [], []
    for v in vectors:
        grew = reference_rank(kept + [v]) > len(kept)
        flags.append(grew)
        if grew:
            kept.append(v)
    return flags, len(kept)


# At most six coordinates with entries in [-3, 3]: by Hadamard's bound
# every minor is below (3 * sqrt(6))^6 = 157,464 in absolute value, far
# below SpanModP's prime, so ranks modulo the prime equal rational ranks.
@st.composite
def offers(draw):
    dim = draw(st.integers(1, 6))
    entries = st.integers(-3, 3) | st.just(0)
    pool = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    # indices into the pool, so that most sequences repeat an input
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=14))
    # per offer: keep the zero entries of the dict form or drop them
    keep_zeros = draw(st.lists(st.booleans(), min_size=len(picks),
                               max_size=len(picks)))
    return dim, [pool[k] for k in picks], keep_zeros


def as_dict(v, keep_zeros):
    return {(k,): x for k, x in enumerate(v) if x or keep_zeros}


@settings(max_examples=300, deadline=None)
@given(offers())
def test_ratspan_matches_unfiltered_elimination(case):
    _dim, vectors, keep_zeros = case
    span = RatSpan()
    flags = [span.add(as_dict(v, z)) for v, z in zip(vectors, keep_zeros)]
    assert (flags, span.rank) == reference_flags(vectors)


@settings(max_examples=300, deadline=None)
@given(offers())
def test_span_mod_p_matches_unfiltered_elimination(case):
    dim, vectors, _keep_zeros = case
    span = SpanModP(dim)
    flags = [span.add(np.array(v, dtype=np.int64)) for v in vectors]
    assert (flags, span.rank) == reference_flags(vectors)


def test_ratspan_ignores_explicit_zero_entries():
    span = RatSpan()
    assert span.add({(0,): 0, (1,): 1})
    assert span.rank == 1
    assert span.contains({(1,): 5, (2,): 0})
    assert not span.add({(0,): 0, (1,): 1})
    assert span.add({(0,): 2, (1,): 0})
    assert span.rank == 2
