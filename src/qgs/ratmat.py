"""Exact rational linear algebra over sparse vectors.

Vectors are dicts mapping hashable keys to nonzero Fractions.  RatSpan
keeps a reduced row echelon basis incrementally, so rank growth, span
membership and reduction residuals are all exact.
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

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, v):
        """Residual of v modulo the span (v is not modified)."""
        out = dict(v)
        for k in [k for k in out if k in self.pivots]:
            c = out.get(k)
            if c:
                vec_add_scaled(out, self.pivots[k], -c)
        return out

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        """Add v to the span; return True if the rank grew."""
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

    def basis(self):
        return [self.pivots[k] for k in sorted(self.pivots, key=_sort_key)]


def span_rank(vectors):
    s = RatSpan()
    for v in vectors:
        s.add(v)
    return s.rank
