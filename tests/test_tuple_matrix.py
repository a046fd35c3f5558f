"""Property tests for the glued tensor product of sparse tuple matrices.

On path symbols F_n(i, j) the glued tensor ``rel_tensor`` is the product
of the path-symbol algebra; it reads the glue coordinates from each key,
so operands may mix keys of different lengths."""

from hypothesis import given, settings, strategies as st

from qgs.algebra import word_star
from qgs.morspace import mat_tilde, rel_tensor


def concat_reference(x, y):
    """Brute-force product of path symbols: every pair of keys whose
    boundary vertices match, concatenated with the shared vertex once."""
    out = {}
    for (p1, q1), c1 in x.items():
        for (p2, q2), c2 in y.items():
            if p1[-1] != p2[0] or q1[-1] != q2[0]:
                continue
            key = (p1 + p2[1:], q1 + q2[1:])
            out[key] = out.get(key, 0) + c1 * c2
    return out


# three vertices, so that boundaries match often; row and column tuples
# of one to three vertices, independently, so key lengths are mixed
tuples = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)
symbols = st.dictionaries(st.tuples(tuples, tuples), st.integers(-3, 3),
                          max_size=6)


@settings(max_examples=300, deadline=None)
@given(symbols, symbols)
def test_rel_tensor_is_the_boundary_matching_concatenation(x, y):
    # same entries, in the same insertion order
    assert list(rel_tensor(x, y).items()) == \
        list(concat_reference(x, y).items())


@settings(max_examples=200, deadline=None)
@given(symbols, symbols, symbols)
def test_rel_tensor_is_associative(x, y, z):
    assert rel_tensor(rel_tensor(x, y), z) == rel_tensor(x, rel_tensor(y, z))


@settings(max_examples=300, deadline=None)
@given(symbols, symbols)
def test_star_and_tilde_reverse_products(x, y):
    assert word_star(rel_tensor(x, y)) == \
        rel_tensor(word_star(y), word_star(x))
    assert mat_tilde(rel_tensor(x, y)) == \
        rel_tensor(mat_tilde(y), mat_tilde(x))


def test_mixed_lengths_example():
    x = {((0, 1), (2, 3)): 2, ((0,), (2,)): 5}
    y = {((1, 0), (3, 2)): 3, ((0, 2, 1), (2, 2)): 7}
    assert rel_tensor(x, y) == {((0, 1, 0), (2, 3, 2)): 6,
                                ((0, 2, 1), (2, 2)): 35}
