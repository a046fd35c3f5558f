"""Exact rational linear algebra over sparse vectors.

Vectors are dicts mapping hashable keys to ints or Fractions; zero
entries are ignored.  RatSpan keeps a reduced row echelon basis
incrementally, so rank growth, span membership and reduction residuals
are all exact.

RatSpan.add remembers every input it has been offered and rejects a
repeat without eliminating.  This is exact: after the first offer the
vector lies in the span, and a span only grows, so the repeat would
reduce to zero anyway.  Callers should pass integer dicts as they are,
since hashing a Fraction computes a modular inverse.
"""

from fractions import Fraction


def vec_scale(v, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_add_scaled(dst, src, c):
    """dst += c * src in place (drops zeros)."""
    c = Fraction(c)
    if c == 0:
        return dst
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)
    return dst


def _sort_key(k):
    return repr(k)


class RatSpan:
    """Incrementally maintained reduced row echelon span of sparse vectors."""

    def __init__(self):
        self.pivots = {}       # pivot key -> vector with that coeff == 1
        self.seen = set()      # frozensets of the items of every input

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, v):
        """Residual of v modulo the span (v is not modified)."""
        out = {k: x for k, x in v.items() if x}
        for k in [k for k in out if k in self.pivots]:
            c = out.get(k)
            if c:
                vec_add_scaled(out, self.pivots[k], -c)
        return out

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        """Add v to the span; return True if the rank grew."""
        key = frozenset(v.items())
        if key in self.seen:
            return False
        self.seen.add(key)
        r = self.reduce(v)
        if not r:
            return False
        p = min(r, key=_sort_key)
        r = vec_scale(r, Fraction(1) / r[p])
        for vec in self.pivots.values():
            c = vec.get(p)
            if c:
                vec_add_scaled(vec, r, -c)
        self.pivots[p] = r
        return True
