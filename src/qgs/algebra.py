"""Hopf *-algebra model and Haar functionals for a finite graph.

The quantum symmetry algebra of a finite graph is spanned by formal words
``U_n(i, j)`` indexed by pairs of vertex tuples of equal length; products
concatenate and the adjoint reverses.  A second algebra is spanned by
path symbols ``F_n(i, j)`` indexed by tuples of length ``n + 1``, with
products concatenating when the boundary vertices match.  Both carry the
relations forced by the intertwiner calculus: a word vanishes unless the
two tuples match orbit-wise, have equal consecutive-distance profiles,
and have consistent vertex-weight ratios.

The positive functional ``phi`` on path symbols is the projection onto
the trivial corner: its value on a pair of closed loops with a common
basepoint orbit is the kernel of the orthogonal projection onto the
invariant loop functions of the level, paired between the two loops.
Pulling ``phi`` back through the corner embedding ``theta_e`` gives the
left Haar functional ``phi_e``; composing with the antipode gives the
right Haar functional ``psi_e``, and the modular element acts by
vertex-weight ratios.

Two routes compute the kernel, on one tuple per Aut(G)-orbit, since
invariant loop functions are Aut-invariant.  The Gram route projects
onto the span generated by the column ladder: per basepoint orbit, an
orbit-weighted Gram matrix of the level's basis is inverted, on the
ladder the certificate built to level 5, extended.  The orbit route
serves graphs that `morspace.classical_certificate` certifies, and
builds no ladder past level 5.  Let u be the fundamental representation
of the quantum group whose intertwiners the category generates (QAut(G) for
category "planar"); it contains Aut(G), because every generated map
commutes with the automorphisms.

- The generated level 4 lies in Fix(u^(x)4), the fixed vectors of the
  fourth tensor power, which lies in the Aut-invariant functions on V^4.
  These have dimension B_4, the number of Aut-orbits on V^4.  The
  ladder's rank is a rank modulo a prime, which is never above the rank
  over Q, so when it reaches B_4 both inclusions are equalities.
- By Frobenius reciprocity Fix(u^(x)4) is isomorphic to End(u^(x)2),
  which then contains the flip of V (x) V.  So the entries u_ij commute,
  and the quantum group is Aut(G): for category "planar", QAut(G) =
  Aut(G).  This is the commutation criterion for quantum symmetry
  (Lupini-Mancinska-Roberson, arXiv 1712.01820; Schmidt, arXiv
  1801.02813).
- Every level M is then spanned by the indicators of the Aut-orbits on
  V^M.  These are orthogonal, and an orbit O has |O|/|a| tuples at each
  basepoint of its vertex orbit a.  So the kernel between two loops with
  basepoints in a is |a|/|O| when both lie in one orbit O, and 0
  otherwise: a ratio of orbit counts.

Elements are plain dicts mapping ``(i, j)`` tuple pairs to coefficients;
keys of different word lengths may be mixed freely.  These are the
sparse tuple matrices of ``morspace``, and its functions are the
operations on them: ``rel_tensor`` multiplies path symbols, ``mat_tilde``
is the antipode, and ``mat_mul``, ``mat_adjoint`` and ``_floatify`` serve
the component decomposition.  The word product ``word_mul``, the adjoint
``word_star`` of words and path symbols, the counit and ``add_into`` are
defined here.
"""

import itertools
from fractions import Fraction

import numpy as np

from .graphs import FiniteGraph, ValidationError, all_pairs_distances
from .morspace import (SpanModP, _floatify, classical_certificate,
                       generate_mor, ibf_basis, least_images, mat_adjoint,
                       mat_mul, mat_tilde, minimal_projections, mor_engine,
                       mu_assignment, quantum_orbits, rel_tensor)


def word(i, j, coef=1):
    """The element coef * U_n(i, j) as a dict."""
    return {(tuple(i), tuple(j)): coef}


def add_into(acc, x, scale=1):
    for key, c in x.items():
        acc[key] = acc.get(key, 0) + scale * c
        if acc[key] == 0:
            del acc[key]
    return acc


def word_mul(x, y):
    """Product in the word algebra: concatenation of both tuples."""
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def word_star(x):
    """Adjoint: U_n(i, j)* = U_n(reversed i, reversed j), and likewise
    F_n(i, j)* on path symbols."""
    out = {}
    for (i, j), c in x.items():
        key = (i[::-1], j[::-1])
        out[key] = out.get(key, 0) + c
    return out


def counit(x):
    """epsilon(U_n(i, j)) = 1 if i == j else 0."""
    return sum(c for (i, j), c in x.items() if i == j)


# ---------------------------------------------------------------------------
# corner kernels
#
# Both routes answer two questions about the level-M kernel K of a
# basepoint orbit a, on flat indices of loop tuples (basepoint first):
# `values` gives K[p[n], q[n]] for paired index arrays, and `apply` gives
# out[r, w] = sum_s sum_c K[rows[s, r], cols[w, c]] * weights[c].


def _orbit_table(least, members, q):
    """The Aut-orbits of loop tuples based in the vertex orbit a
    (`members`), from the least images of their level: (index, reps,
    per_base).  `index` numbers the orbit of every flat tuple, -1 where
    its basepoint is outside a; `reps` holds each orbit's least tuple,
    and `per_base` its tuples at one basepoint, |O| / |a|."""
    based = np.repeat(np.isin(np.arange(q), members), len(least) // q)
    reps = np.flatnonzero((least == np.arange(len(least))) & based)
    index = np.full(len(least), -1)
    index[reps] = np.arange(len(reps))
    index = index[least]
    sizes = np.bincount(index[based], minlength=len(reps))
    return index, reps, sizes / len(members)


class _GramKernel:
    """Kernels of the projection onto the ladder's generated spans.

    The ladder is `mor_engine(graph, category)`'s, extended to max_level,
    and only the prefix `sizes` it held then is read.  The level-M ladder
    elements, read (`ColumnLadder.elements`) at the orbit representatives
    based in a alone, are re-reduced to a corner basis T.  Its Gram
    matrix at each basepoint, T diag(the orbits' tuples there) T^T, must
    be constant over a, so it is G = T diag(per_base) T^T; the kernel
    T^T G^-1 T is kept as two factors with one row per orbit, and a zero
    row that index -1 reads."""

    def __init__(self, graph, category, max_level, orbits):
        self.q = graph.vertex_count
        self.orbits = orbits
        self.ladder = mor_engine(graph, category).ladder
        self.ladder.extend(max_level)
        self.sizes = {M: len(rows) for M, rows in self.ladder.levels.items()}
        self._corners = {}

    def _corner(self, M, a):
        if (M, a) in self._corners:
            return self._corners[M, a]
        index, reps, _per_base = _orbit_table(
            self.ladder.least[M], self.orbits.classes[a], self.q)
        span = SpanModP(len(reps))
        rows = [vec for vec in self.ladder.elements(M, self.sizes[M], reps)
                if span.add(vec)]
        if not rows:
            raise ValidationError("empty corner at level %d" % M)
        t = np.array(rows, dtype=np.float64)
        # Grams at basepoints in one Aut-orbit agree: check the least
        # basepoint of each Aut-orbit inside a
        block = len(index) // self.q
        grams = [(t * np.bincount(index[v * block:(v + 1) * block],
                                  minlength=len(reps))) @ t.T
                 for v in np.unique(reps // block)]
        if any(not np.array_equal(grams[0], g) for g in grams[1:]):
            raise ValidationError(
                "corner Gram matrix is not constant on the orbit")
        zero = np.zeros((1, len(rows)))
        self._corners[M, a] = (index, np.vstack([t.T, zero]), np.vstack(
            [np.linalg.solve(grams[0], t).T, zero]))
        return self._corners[M, a]

    def values(self, M, a, p_idx, q_idx):
        index, left, right = self._corner(M, a)
        return np.einsum("nk,nk->n", left[index[p_idx]],
                         right[index[q_idx]])

    def apply(self, M, a, rows, cols, weights):
        index, left, right = self._corner(M, a)
        # the kernel is linear, so the sum over s is taken before the
        # product
        return (left[index[rows]].sum(axis=0)
                @ (weights @ right[index[cols]]).T)


class _OrbitKernel:
    """Kernels of the projection onto the Aut-invariants, from orbit
    counts: K[p, q] = 1 / per_base = |a| / |O| when p and q lie in one
    Aut-orbit O of loop tuples, else 0.  Each level's least images are
    computed once, or taken from `least`, the certificate ladder's."""

    def __init__(self, auts, q, orbits, least):
        self.auts = auts
        self.q = q
        self.orbits = orbits
        self._least = dict(least)
        self._tables = {}

    def _table(self, M, a):
        # the orbit index of each flat tuple, and each orbit's kernel
        # followed by the 0 that index -1 reads
        if (M, a) not in self._tables:
            if M not in self._least:
                self._least[M] = least_images(self.auts, self.q, max(M, 1))
            index, _reps, per_base = _orbit_table(
                self._least[M], self.orbits.classes[a], self.q)
            self._tables[M, a] = index, np.append(1 / per_base, 0.0)
        return self._tables[M, a]

    def values(self, M, a, p_idx, q_idx):
        index, kern = self._table(M, a)
        p_ids = index[p_idx]
        return np.where(p_ids == index[q_idx], kern[p_ids], 0.0)

    def apply(self, M, a, rows, cols, weights):
        index, kern = self._table(M, a)
        # per column w, the weight each orbit carries among its columns
        acc = np.zeros((len(kern), cols.shape[0]))
        np.add.at(acc, (index[cols], np.arange(cols.shape[0])[:, None]),
                  weights)
        row_ids = index[rows]
        return (acc[row_ids] * kern[row_ids][..., None]).sum(axis=0)


class HaarSystem:
    """Haar functional data for the quantum symmetries of a finite graph.

    max_level bounds the column-space ladder; levels up to max_level - 1
    are trusted, so words of length up to max_level - 2 can be
    integrated.  `auts` is Aut(G) when `classical_certificate` holds:
    the kernels are then orbit-count ratios and no ladder is built past
    level 5.  Otherwise it is None and the kernels come from that
    ladder, extended.  The depth bound holds on both routes."""

    def __init__(self, graph, category="planar", max_level=7):
        if not isinstance(graph, FiniteGraph):
            raise ValidationError(
                "the Haar functional model requires a finite graph; "
                "windowed providers are not supported")
        if not graph.is_connected():
            raise ValidationError("graph must be connected")
        self.graph = graph
        self.category = category
        self.q = graph.vertex_count
        self.max_level = max_level
        self.dist = all_pairs_distances(graph)
        self.orbits = quantum_orbits(graph, category=category)
        self.mu = mu_assignment(graph).mu
        self.auts = classical_certificate(graph, category)
        if self.auts is None:
            self._kernel = _GramKernel(graph, category, max_level,
                                       self.orbits)
        else:
            self._kernel = _OrbitKernel(
                self.auts, self.q, self.orbits,
                mor_engine(graph, category).ladder.least)
        # the admissibility rules read these tables, compared once: the
        # orbit of each vertex, and for each ordered pair (v, w) the
        # class of its weight ratio mu[w] / mu[v]
        self._orbit = [self.orbit_of(v) for v in range(self.q)]
        classes = {}
        self._ratio = [[classes.setdefault(self.mu[w] / self.mu[v],
                                           len(classes))
                        for w in range(self.q)] for v in range(self.q)]

    def orbit_of(self, v):
        return self.orbits.orbit_of(v)

    def orbit_members(self, a):
        return self.orbits.classes[a]

    # -- zero rules ---------------------------------------------------

    def word_is_zero(self, i, j):
        """Admissibility of U_n(i, j): orbit, distance and weight rules."""
        if len(i) != len(j):
            raise ValidationError("word tuples must have equal length")
        orbit, dist, ratio = self._orbit, self.dist, self._ratio
        for a, b in zip(i, j):
            if orbit[a] != orbit[b]:
                return True
        for k in range(1, len(i)):
            a, b, c, d = i[k - 1], i[k], j[k - 1], j[k]
            if dist[a][b] != dist[c][d] or ratio[a][b] != ratio[c][d]:
                return True
        return False

    def f_is_zero(self, p, q):
        """Admissibility of F_n(p, q) for tuples of length n + 1."""
        if len(p) != len(q):
            raise ValidationError("path tuples must have equal length")
        orbit, dist = self._orbit, self.dist
        for a, b in zip(p, q):
            if orbit[a] != orbit[b]:
                return True
        for k in range(1, len(p)):
            if dist[p[k - 1]][p[k]] != dist[q[k - 1]][q[k]]:
                return True
        return self._ratio[p[0]][p[-1]] != self._ratio[q[0]][q[-1]]

    # -- corner kernels -----------------------------------------------

    def kernel_values(self, M, a, p_idx, q_idx):
        """phi(F_M(p, q)) for flattened free-coordinate index arrays."""
        if M > self.max_level - 1:
            raise ValidationError(
                "level %d exceeds the trusted ladder depth %d"
                % (M, self.max_level - 1))
        return self._kernel.values(M, a, p_idx, q_idx)

    def _flat(self, tup):
        idx = 0
        for v in tup:
            idx = idx * self.q + v
        return idx

    # -- functionals ----------------------------------------------------

    def phi_f(self, x):
        """The positive functional on path-symbol combinations."""
        batches = {}
        for (p, q), c in x.items():
            if c == 0:
                continue
            if p[0] != p[-1] or q[0] != q[-1]:
                continue
            a = self.orbit_of(p[0])
            if self.orbit_of(q[0]) != a:
                continue
            if self.f_is_zero(p, q):
                continue
            M = len(p) - 1
            if M == 0:
                pi, qi = self._flat(p), self._flat(q)
            else:
                pi, qi = self._flat(p[:-1]), self._flat(q[:-1])
            batches.setdefault((max(M, 1), a), []).append((pi, qi, c))
        total = 0.0
        for (M, a), items in batches.items():
            p_idx = np.array([it[0] for it in items])
            q_idx = np.array([it[1] for it in items])
            coefs = np.array([float(it[2]) for it in items])
            total += float(coefs @ self.kernel_values(M, a, p_idx, q_idx))
        return total

    def theta(self, x, e):
        """Corner embedding of word combinations into path symbols."""
        a = self.orbit_of(e)
        members = self.orbit_members(a)
        out = {}
        for (i, j), c in x.items():
            if c == 0 or self.word_is_zero(i, j):
                continue
            q_tup = (e,) + j + (e,)
            for s in members:
                for t in members:
                    p_tup = (s,) + i + (t,)
                    if self.f_is_zero(p_tup, q_tup):
                        continue
                    key = (p_tup, q_tup)
                    out[key] = out.get(key, 0) + c
        return out

    def phi_e(self, x, e):
        """Left Haar functional at base vertex e.

        Only the closed terms of the corner embedding survive the
        trivial-corner projection, so the sum over the embedding corner
        collapses to a single basepoint sum over the orbit of e."""
        a = self.orbit_of(e)
        batches = {}
        for (i, j), c in x.items():
            if c == 0 or self.word_is_zero(i, j):
                continue
            n = len(i)
            if n + 1 > self.max_level - 1:
                raise ValidationError(
                    "word length %d exceeds the trusted depth" % n)
            q_tup = (e,) + j + (e,)
            for s in self.orbit_members(a):
                p_tup = (s,) + i + (s,)
                if self.f_is_zero(p_tup, q_tup):
                    continue
                batches.setdefault(n + 1, []).append(
                    (self._flat(p_tup[:-1]), self._flat(q_tup[:-1]), c))
        total = 0.0
        for M, items in batches.items():
            p_idx = np.array([it[0] for it in items])
            q_idx = np.array([it[1] for it in items])
            coefs = np.array([float(it[2]) for it in items])
            total += float(coefs @ self.kernel_values(M, a, p_idx, q_idx))
        return total

    def psi_e(self, x, e):
        """Right Haar functional: the left one composed with the antipode."""
        return self.phi_e(mat_tilde(x), e)

    def mul_delta(self, x):
        """Right multiplication by the modular element.

        Each nonzero word picks up the weight ratio of its last letters;
        centrality makes the first-letter ratio agree on nonzero words."""
        out = {}
        for (i, j), c in x.items():
            if self.word_is_zero(i, j):
                continue
            out[(i, j)] = c * Fraction(self.mu[i[-1]], 1) / self.mu[j[-1]]
        return out

    def rho_f(self, x):
        """The modular automorphism on path symbols: endpoint weight ratio."""
        out = {}
        for (p, q), c in x.items():
            if self.f_is_zero(p, q):
                continue
            out[(p, q)] = c * self.mu[p[-1]] / self.mu[p[0]]
        return out

    # -- admissible tuple enumeration -----------------------------------

    def admissible_partners(self, j_tup):
        """All i with U_n(i, j_tup) nonzero, in lexicographic order.
        The rules of `word_is_zero` are applied to all q^n tuples at
        once."""
        n = len(j_tup)
        tups = np.indices((self.q,) * n).reshape(n, -1).T
        orbit = np.array(self._orbit)
        dist = np.array(self.dist)
        ratio = np.array(self._ratio)
        j = np.array(j_tup)
        ok = (orbit[tups] == orbit[j]).all(axis=1)
        for k in range(1, n):
            a, b = tups[:, k - 1], tups[:, k]
            ok &= dist[a, b] == dist[j[k - 1], j[k]]
            ok &= ratio[a, b] == ratio[j[k - 1], j[k]]
        return [tuple(t) for t in tups[ok].tolist()]

    def unit_pairs(self):
        """All (v, w) with u_vw nonzero."""
        return [(v, w) for v in range(self.q) for w in range(self.q)
                if not self.word_is_zero((v,), (w,))]

    # -- property checks -------------------------------------------------

    def haar_closed_form(self, s, t, i, j, e):
        """Closed form for phi_e(u_se U_n(i, j) u_te).

        The value vanishes unless s == t and otherwise equals the
        level-(n + 1) projection kernel paired between the loops
        (s, i, s) and (e, j, e)."""
        if s != t:
            return 0.0
        a = self.orbit_of(e)
        if self.orbit_of(s) != a:
            return 0.0
        p_tup = (s,) + i + (s,)
        q_tup = (e,) + j + (e,)
        if self.f_is_zero(p_tup, q_tup):
            return 0.0
        val = self.kernel_values(
            len(i) + 1, a,
            np.array([self._flat(p_tup[:-1])]),
            np.array([self._flat(q_tup[:-1])]))
        return float(val[0])

    def left_invariance_residual(self, e, n_max=2):
        """Worst residual of left invariance over short corner words.

        For every b = u_se U_n(i, j) u_te with n <= n_max, the identity
        (id (x) phi_e) Delta(b) = phi_e(b) 1 is paired against the test
        words a = u_vw of every unit pair through the faithful functional
        phi_e itself, comparing phi_e(a . (id (x) phi_e) Delta(b)) with
        phi_e(a) phi_e(b)."""
        q = self.q
        a_orb = self.orbit_of(e)
        members = np.array(self.orbit_members(a_orb))
        phe_unit = np.zeros((q, q))
        tested = np.zeros((q, q), dtype=bool)
        for (v, w) in self.unit_pairs():
            phe_unit[v, w] = self.phi_e(word((v,), (w,)), e)
            tested[v, w] = True
        verts = np.arange(q)
        worst = 0.0
        checked = 0
        for n in range(1, n_max + 1):
            level = n + 4
            if level > self.max_level - 1:
                raise ValidationError(
                    "n_max %d needs ladder level %d" % (n_max, level))
            block = q ** (n + 2)
            for j in itertools.product(range(q), repeat=n):
                q_tup = (e,) + j + (e,)
                ps = np.array(self.admissible_partners(q_tup))
                if not len(ps):
                    continue
                tail = ps @ q ** np.arange(n + 1, -1, -1)
                # ph[m] = phi_e(U(m, q_tup)), in one kernel call: q_tup
                # starts and ends at e, so of the basepoints s only
                # s = m[0] passes f_is_zero, and only when m[-1] == m[0]
                closed = ps[:, 0] == ps[:, -1]
                ph = np.zeros(len(ps))
                ph[closed] = self.kernel_values(
                    n + 3, a_orb, ps[closed, 0] * block + tail[closed],
                    np.full(closed.sum(), self._flat((e,) + q_tup)))
                # lhs[v, p, w] = sum_s sum_m K[(s, v) + p, (e, w) + m] ph[m]
                # = phi_e(u_vw U(p, m)) paired with ph, for every (v, w)
                rows = ((members[:, None, None] * q + verts[:, None])
                        * block + tail)
                cols = (e * q + verts)[:, None] * block + tail
                lhs = self._kernel.apply(
                    level, a_orb, rows.reshape(len(members), -1), cols,
                    ph).reshape(q, len(ps), q)
                rhs = phe_unit[:, None, :] * ph[:, None]
                gap = np.abs(lhs - rhs).max(axis=1)[tested]
                worst = max(worst, float(gap.max(initial=0.0)))
                checked += len(ps) * len(gap)
        if checked == 0:
            raise ValidationError("no admissible words to check")
        return worst


# ---------------------------------------------------------------------------
# canonical component form


class Irreducible:
    """A registered irreducible: minimal projection at its lowest arity."""

    def __init__(self, ident, proj):
        self.id = ident
        self.k = proj.arity
        self.block = proj.block
        self.proj = proj
        self.d_left = proj.d_left
        self.d_right = proj.d_right


class AlgebraElement:
    """Element of the path-symbol algebra in canonical component form.

    components maps an irreducible id to its coefficient matrix, a
    sparse dict over pairs of (k_alpha + 1)-tuples supported in the
    range of the registered minimal projection."""

    def __init__(self, system, components, stable=True):
        self.system = system
        self.components = {a: c for a, c in components.items() if c}
        self.stable = stable

    def is_zero(self, tol=1e-9):
        return all(abs(v) <= tol for c in self.components.values()
                   for v in c.values())

    def close_to(self, other, tol=1e-9):
        keys = set(self.components) | set(other.components)
        for a in keys:
            x = self.components.get(a, {})
            y = other.components.get(a, {})
            for key in set(x) | set(y):
                if abs(x.get(key, 0) - y.get(key, 0)) > tol:
                    return False
        return True


class ComponentSystem:
    """Irreducible decomposition of path symbols up to a bounded arity.

    Registers the minimal projections of the generated square morphism
    spaces at arities 0..max_arity, identifies projections that are
    equivalent across arities, and caches isometric bases of finite type
    used to decompose path symbols into their components."""

    def __init__(self, graph, category="planar", max_arity=2, tol=1e-9):
        if not isinstance(graph, FiniteGraph):
            raise ValidationError(
                "component decomposition requires a finite graph")
        self.graph = graph
        self.category = category
        self.max_arity = max_arity
        self.tol = tol
        self.irreducibles = []
        self._bases = {}
        self._ibf = {}
        self._completeness = {}
        for k in range(max_arity + 1):
            basis = generate_mor(graph, k, k, category=category)
            for proj in minimal_projections(basis, tol=tol):
                if not self._known(proj, k):
                    self.irreducibles.append(
                        Irreducible(len(self.irreducibles), proj))

    def _mor(self, n, m):
        key = (n, m)
        if key not in self._bases:
            self._bases[key] = generate_mor(self.graph, n, m,
                                            category=self.category)
        return self._bases[key]

    def _known(self, proj, k):
        """Is proj equivalent to a registered irreducible of arity <= k?

        Minimal projections P, Q are equivalent when the corner
        P Mor(k, k') Q is nonzero."""
        for irr in self.irreducibles:
            if irr.block is not None and proj.block is not None \
                    and irr.block != proj.block:
                continue
            for b in self._mor(k, irr.k).matrices:
                prod = mat_mul(mat_mul(proj.matrix, _floatify(b)),
                               irr.proj.matrix)
                if any(abs(v) > 1e3 * self.tol for v in prod.values()):
                    return True
        return False

    def ibf(self, n, irr):
        """Isometries of finite type from the irreducible into arity n."""
        key = (n, irr.id)
        if key not in self._ibf:
            if irr.k > n:
                self._ibf[key] = ([], 0.0)
            else:
                self._ibf[key] = ibf_basis(self.graph, irr.proj, n,
                                           category=self.category,
                                           tol=self.tol)
        return self._ibf[key]

    def completeness_residual(self, n):
        """Worst entry of  sum_alpha sum_V V V*  minus the identity."""
        if n not in self._completeness:
            total = {}
            for irr in self.irreducibles:
                for v in self.ibf(n, irr)[0]:
                    add_into(total, mat_mul(v, mat_adjoint(v)))
            worst = 0.0
            for i in itertools.product(range(self.graph.vertex_count),
                                       repeat=n + 1):
                for j in itertools.product(range(self.graph.vertex_count),
                                           repeat=n + 1):
                    want = 1.0 if i == j else 0.0
                    worst = max(worst,
                                abs(total.get((i, j), 0) - want))
            self._completeness[n] = worst
        return self._completeness[n]

    def decompose(self, n, mat):
        """Canonical components of the path symbol with matrix mat."""
        if n > self.max_arity:
            raise ValidationError(
                "arity %d exceeds the decomposition bound %d"
                % (n, self.max_arity))
        stable = True
        comps = {}
        fmat = _floatify(mat)
        for irr in self.irreducibles:
            acc = {}
            worst = self.ibf(n, irr)[1]
            if worst > 1e3 * self.tol:
                stable = False
            for v in self.ibf(n, irr)[0]:
                add_into(acc, mat_mul(mat_mul(mat_adjoint(v), fmat), v))
            acc = {k: v for k, v in acc.items() if abs(v) > self.tol}
            if acc:
                comps[irr.id] = acc
        return AlgebraElement(self, comps, stable=stable)

    def irr(self, ident):
        return self.irreducibles[ident]


def f_elem(system, n, xi, eta):
    """The path symbol F_n(xi, eta) in canonical component form."""
    mat = {}
    for i, ci in xi.items():
        for j, cj in eta.items():
            if ci and cj:
                mat[(tuple(i), tuple(j))] = ci * cj
    return system.decompose(n, mat)


def f_symbol(system, n, i, j):
    """The basis path symbol F_n(i, j) in canonical component form."""
    return f_elem(system, n, {tuple(i): 1}, {tuple(j): 1})


def _recompose(system, pieces, stable):
    """Decompose each (arity, matrix) piece and sum the components."""
    out = {}
    for k, mat in pieces:
        piece = system.decompose(k, mat)
        stable = stable and piece.stable
        for ident, comp in piece.components.items():
            add_into(out.setdefault(ident, {}), comp)
    return AlgebraElement(system, out, stable=stable)


def multiply(x, y):
    """Product in canonical form: concatenate components, re-decompose."""
    system = x.system
    pieces = []
    for a, ca in x.components.items():
        for b, cb in y.components.items():
            prod = rel_tensor(ca, cb)
            if prod:
                pieces.append((system.irr(a).k + system.irr(b).k, prod))
    return _recompose(system, pieces, x.stable and y.stable)


def star(x):
    """Adjoint in canonical form: F_n(i, j)* = F_n(reversed i, reversed j)."""
    return _recompose(x.system, [(x.system.irr(a).k, word_star(ca))
                                 for a, ca in x.components.items()], x.stable)


def kappa(x):
    """The *-anti-automorphism F_n(i, j) -> F_n(reversed j, reversed i)."""
    return _recompose(x.system, [(x.system.irr(a).k, mat_tilde(ca))
                                 for a, ca in x.components.items()], x.stable)


def phi(x):
    """The positive functional: sum of trivial-component entries."""
    total = 0.0
    for a, comp in x.components.items():
        if x.system.irr(a).k == 0:
            total += sum(float(v) for v in comp.values())
    return total


def rho_map(x):
    """Scale each component by its dimension ratio d_r / d_l."""
    out = {}
    for a, comp in x.components.items():
        irr = x.system.irr(a)
        scale = float(Fraction(irr.d_right, irr.d_left))
        out[a] = {key: scale * val for key, val in comp.items()}
    return AlgebraElement(x.system, out, stable=x.stable)


def inner_product_formula(x, y):
    """sum_alpha d_l(alpha)^{-1} <theta_alpha(x), theta_alpha(y)>."""
    total = 0.0
    for a in set(x.components) & set(y.components):
        irr = x.system.irr(a)
        ca, cb = x.components[a], y.components[a]
        dot = sum(float(ca[k]) * float(cb.get(k, 0)) for k in ca)
        total += dot / irr.d_left
    return total


def u_word(system, e, factors):
    """Corner image of a product of word symbols, in canonical form.

    factors is a list of (i, j) tuple pairs; they are concatenated into
    one word and embedded through the corner map at base vertex e."""
    i = tuple(v for (iw, _jw) in factors for v in iw)
    j = tuple(v for (_iw, jw) in factors for v in jw)
    hs = haar_system(system.graph, system.category)
    mat = hs.theta(word(i, j), e)
    return system.decompose(len(i) + 1, mat)


def delta_checks(graph, e, f, category="planar", max_level=7):
    """Modular-element and base-point reports for a finite graph.

    Verifies that the right Haar functional is the left one twisted by
    the weight-ratio action of the modular element, and that changing
    the base vertex rescales the left Haar functional by mu_f / mu_e.
    Words of length up to two are checked exhaustively, on the system
    of `haar_system(graph, category, max_level)`."""
    hs = haar_system(graph, category, max_level)
    q = hs.q
    worst_modular = 0.0
    worst_base = 0.0
    scale = float(hs.mu[f] / hs.mu[e])
    words = [word(i, j) for n in (1, 2)
             for j in itertools.product(range(q), repeat=n)
             for i in hs.admissible_partners(j)]
    for x in words:
        worst_modular = max(worst_modular, abs(
            hs.psi_e(x, e) - hs.phi_e(hs.mul_delta(x), e)))
        worst_base = max(worst_base, abs(
            hs.phi_e(x, e) - scale * hs.phi_e(x, f)))
    ratios = sorted({hs.mu[i] / hs.mu[j] for i, j in hs.unit_pairs()})
    return {
        "modular_residual": worst_modular,
        "base_change_residual": worst_base,
        "delta_ratios": [str(r) for r in ratios],
        # the modular element is trivial exactly when the weight is
        # constant on every orbit, i.e. all generator ratios are 1
        "unimodular": ratios == [Fraction(1)],
        "words_checked": len(words),
    }


_systems = {}


def haar_system(graph, category="planar", max_level=7):
    key = (graph, category, max_level)
    if key not in _systems:
        _systems[key] = HaarSystem(graph, category, max_level)
    return _systems[key]
