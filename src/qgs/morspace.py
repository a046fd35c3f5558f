"""Morphism-space linear algebra on graph windows.

Spans of homomorphism matrices in path form (the first entries of the two
label tuples agree, and likewise the last entries) are generated by a
closure procedure.  From the generated spans we read off quantum orbits,
minimal projections with left/right dimensions, the modular vertex weight
mu, and conjugate solutions for the duality equations.

The path projections, the Lambda-projections and the edge substitution
that evaluates a pointed planar pattern with matrix-valued edges are
weighted homomorphism sums over a finite graph.  Like the seeds, they
are read off homomorphism rows of the one finite counting kernel, the
join of `hommat.PatternTrie` (`hommat.hom_rows` for one pattern).

Two engines cooperate.  A function engine works at arities (0,0) and
(1,1), where every span element is a function on vertices or on vertex
pairs; it runs on finite graphs and on guarded windows of infinite
providers.  The column ladder (`ColumnLadder`) is the one closure engine
for higher arities: on finite graphs it generates the column spaces
Mor(M, 0) as integer functions on V^M, seeded by the function engine's
vertex functions at levels 0 and 1 and its pair functions at level 2.
Every Mor(n, m) with n + m <= MOR_LEVEL is read off ladder level n + m
by rotation (`MorEngine`): in path form both spaces have the same n + m
free coordinates around one closed loop.  Each graph and category has
one ladder, the `MorEngine`'s, which `qgs.algebra` extends upwards.

On finite graphs the seeds are pinned homomorphism counts of the planar
patterns of `quantiso.planar_patterns`.  Category "planar" spans the
intertwiners of the quantum automorphism group; category "all" spans
those of the classical group, because the ladder also applies the
crossing of two interior loop coordinates.  The crossing acts only from
arity 2 on, so at arities (0,0) and (1,1) the two categories give the
same spans, and the function engine takes no category.

On finite graphs the function engine runs no closure: its bases are the
indicators of the atoms of the coherent closure of the seeds, computed
by 2-dimensional Weisfeiler-Leman refinement.  Their span is closed
under pointwise product, transpose, convolution, diagonal restriction,
scaling and row sums, so it holds all that these operations generate
from the seeds.  On a connected graph the generated span holds J as
well (a convolution power of the diagonal plus the edge count is
positive everywhere, and its pointwise powers span the indicator of its
support), so it is a coherent algebra containing the seeds, and the two
spans are equal.  On windows, where convolution is not exact, the spans
are generated by a `RatSpan` closure over the pointwise operations.

`ColumnLadder` decides ranks in Aut-orbit coordinates.  Every vector it
generates is fixed by the classical automorphisms (Aut lies in QAut), so
its values on the smallest tuple of each Aut-orbit determine it:
restricting to those representatives is injective on the invariants,
over Q and modulo a prime alike, and every accept decision is the one
the full vectors would give.  So each element is stored only by its
values at the representatives, its orbit row, and each candidate is
gathered there from its operands' orbit rows.  A level whose rank
reaches the number of representatives (the Burnside count) holds every
invariant vector, so the ladder computes no further candidate for it.
When level 4 does, the quantum group of the category is Aut(G) itself
(`classical_certificate`).
"""

from collections import deque
from fractions import Fraction
import itertools
import random

import numpy as np

from . import quantiso
from .graphs import (DEFAULT_AUT_LIMIT, BudgetExceeded, FiniteGraph,
                     ValidationError, all_pairs_distances, ball,
                     classical_aut, distance, path_graph)
from .bilabeled import BiLabeled
from .hommat import (TupleWindow, hom_matrix_windowed, hom_rows,
                     partial_trace, pinned_pair_counts)
from .ratmat import RatSpan


# ---------------------------------------------------------------------------
# scenes: finite graphs and guarded windows


class Scene:
    """A finite graph, or a radius-limited window of a provider.

    Windows keep a guarded core: statements are only evaluated at
    vertices whose full neighborhood (up to the guard margin) lies inside
    the window, so truncation never contaminates reported values."""

    def __init__(self, kind, graph=None, provider=None, vertices=None,
                 core=None, radius=None, guard=None, distances=None):
        self.kind = kind
        self.graph = graph
        self.provider = provider
        self.vertices = vertices
        self.core = core
        self.radius = radius
        self.guard = guard
        self.distances = distances

    @classmethod
    def finite(cls, graph):
        verts = list(range(graph.vertex_count))
        return cls("finite", graph=graph, vertices=verts, core=set(verts))

    @classmethod
    def window(cls, provider, radius, guard=2):
        if radius <= guard:
            raise ValidationError("window radius must exceed the guard")
        b = ball(provider, provider.base_vertex, radius)
        core = {v for v in b.keys if b.distances[v] <= radius - guard}
        return cls("window", provider=provider, vertices=list(b.keys),
                   core=core, radius=radius, guard=guard,
                   distances=dict(b.distances))

    @property
    def is_finite(self):
        return self.kind == "finite"

    def neighbors(self, v):
        if self.is_finite:
            return self.graph.neighbors(v)
        return self.provider.neighbors(v)

    def vertex_sort_key(self, v):
        return (len(str(v)), str(v))


def scene_for(target, window=None):
    """Build a scene from a finite graph or a provider plus window spec."""
    if isinstance(target, FiniteGraph):
        return Scene.finite(target)
    if window is None:
        window = {}
    return Scene.window(target, window.get("radius", 4),
                        window.get("guard", 2))


# ---------------------------------------------------------------------------
# pointed gadgets for windows


def _square_diag_graph():
    """Square 0-1-3-2-0 with the diagonal 1-2."""
    return FiniteGraph(4, [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2)])


def _double_square_diag_graph():
    """Two square-with-diagonal patterns chained at a middle vertex:
    counting its maps realizes the matrix square of the single pattern,
    which separates pair classes the single pattern cannot."""
    return FiniteGraph(7, [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2),
                           (1, 4), (4, 6), (6, 5), (5, 1), (4, 5)])


# ---------------------------------------------------------------------------
# function engine: arities (0,0) and (1,1)

# Seed patterns on finite graphs are the planar patterns on at most this
# many vertices; below 5 vertices every connected graph is planar.
GADGET_VERTICES = 4
# The window closure stops after this many rounds.
FUNCTION_ROUNDS = 8
# On windows, row and column sums are taken only of pair functions whose
# support radius is at most this.
WINDOW_PAIR_RADIUS = 1


class FunctionEngine:
    """Generated spans of vertex functions and pair functions.

    On finite scenes `f1_items` are the indicators of the pair atoms of
    the coherent closure of the seeds (`_coherent_atoms`), and `f0_items`
    those of its diagonal atoms, as vertex functions; both lists are in
    the order of the atoms' least pairs.  Their span contains the seeds
    and J, and is closed under pointwise product, transpose,
    convolution, diagonal restriction, scaling and row sums.  On a
    disconnected graph it holds more than those operations generate from
    the seeds: J, the hom matrix of two unlinked labels, which lies in
    the planar category.

    On windows a `RatSpan` closure generates the spans until a round
    adds nothing or FUNCTION_ROUNDS is reached.  Pair functions carry a
    support radius; only pointwise operations are used, and row/column
    sums are taken only for functions whose support radius fits inside
    the recorded pair domain."""

    def __init__(self, scene):
        self.scene = scene
        self._build_domain()
        self._seed()
        if scene.is_finite:
            self.rounds = 0
            self.stable = True
        else:
            self._close()
            # the spans' seen-sets are only needed while closing
            del self.f0_span, self.f1_span

    def _build_domain(self):
        s = self.scene
        if s.is_finite:
            self.eval_verts = list(s.vertices)
            self.pairs = [(u, v) for u in s.vertices for v in s.vertices]
        else:
            # evaluate only near the core; pattern counts themselves may
            # query the provider beyond the window, so values are exact
            margin = len(s.core) and max(
                s.distances[v] for v in s.core) + 1
            self.eval_verts = [v for v in s.vertices
                               if s.distances[v] <= margin]
            keep = set(self.eval_verts)
            self.pairs = []
            for u in self.eval_verts:
                self.pairs.append((u, u))
                for v in s.neighbors(u):
                    if v in keep:
                        self.pairs.append((u, v))
            self.pairs = sorted(set(self.pairs),
                                key=lambda p: (s.vertex_sort_key(p[0]),
                                               s.vertex_sort_key(p[1])))
        self.core_pairs = [p for p in self.pairs
                           if p[0] in s.core and p[1] in s.core]
        self.core_pair_set = set(self.core_pairs)

    def _eval_pattern(self, graph, x1, x2):
        """Exact pinned counts of a pointed-pair pattern on every pair of
        the window's domain, as a homomorphism count of `graph` with x1,
        x2 pinned.  Returns (function dict, support radius)."""
        pairs = TupleWindow(2, self.pairs)
        hm = hom_matrix_windowed(BiLabeled(graph, (x1, x2), (x1, x2)),
                                 self.scene.provider, pairs, pairs)
        fn = {i: c for (i, _j), c in hm.entries.items()}
        # pins at graph distance > their distance in the pattern give 0
        return fn, distance(graph, x1, x2, graph.vertex_count)

    def _seed(self):
        s = self.scene
        self.f0_items = []           # (dict vertex -> int, provenance)
        self.f1_items = []           # (dict pair -> int, radius, provenance)
        if s.is_finite:
            for atom in _coherent_atoms(s.graph):
                self.f1_items.append(({p: 1 for p in atom}, None,
                                      "pair atom"))
                if atom[0][0] == atom[0][1]:
                    self.f0_items.append(({u: 1 for u, _v in atom},
                                          "vertex atom"))
        else:
            self.f0_span = RatSpan()
            self.f1_span = RatSpan()
            self._add_f1({(u, u): 1 for u in self.eval_verts}, 0,
                         "diagonal")
            slim = [(FiniteGraph(2, [(0, 1)]), 0, 1, "edge"),
                    (_square_diag_graph(), 0, 1, "square+diagonal"),
                    (FiniteGraph(3, [(0, 1), (1, 2), (2, 0)]), 0, 1,
                     "triangle"),
                    (FiniteGraph(3, [(0, 1), (1, 2)]), 0, 0,
                     "walk-2 return"),
                    (_double_square_diag_graph(), 0, 4,
                     "square+diagonal chained")]
            for g, x1, x2, name in slim:
                fn, rad = self._eval_pattern(g, x1, x2)
                self._add_f1(fn, rad, name)
            for g, x1, name in [(FiniteGraph(2, [(0, 1)]), 0, "degree"),
                                (_square_diag_graph(), 0, "square+diag pt"),
                                (FiniteGraph(3, [(0, 1), (1, 2), (2, 0)]),
                                 0, "triangle pt")]:
                fn, _rad = self._eval_pattern(g, x1, x1)
                self._add_f0(_diagonal(fn), name)

    def _core_vec(self, fn, keys):
        return {k: v for k, v in fn.items() if k in keys}

    def _add_f0(self, fn, provenance):
        vec = self._core_vec(fn, self.scene.core)
        if self.f0_span.add(vec):
            self.f0_items.append((fn, provenance))
            return True
        return False

    def _add_f1(self, fn, radius, provenance):
        vec = self._core_vec(fn, self.core_pair_set)
        if self.f1_span.add(vec):
            self.f1_items.append((fn, radius, provenance))
            return True
        return False

    def _offers(self, f0_new, f1_new):
        """One round's candidates in order, as (arity, function, radius,
        provenance); the loops over the item lists also reach items
        accepted earlier in the same round."""
        # pointwise products
        for a in f1_new:
            for b in self.f1_items:
                yield 1, _pw_mul(a[0], b[0]), min(a[1], b[1]), "product"
        for a in f0_new:
            for b in self.f0_items:
                yield 0, _pw_mul(a[0], b[0]), None, "product"
        # swap, diagonal restriction, boundary scalings
        for a in f1_new:
            yield 1, {(v, u): c for (u, v), c in a[0].items()}, a[1], "swap"
            yield 0, _diagonal(a[0]), None, "diagonal"
        for f0 in f0_new:
            for a in self.f1_items:
                yield 1, {(u, v): f0[0].get(u, 0) * c
                          for (u, v), c in a[0].items()
                          if f0[0].get(u, 0)}, a[1], "left scaling"
                yield 1, {(u, v): c * f0[0].get(v, 0)
                          for (u, v), c in a[0].items()
                          if f0[0].get(v, 0)}, a[1], "right scaling"
        # row/column sums where the support provably fits the domain
        for a in f1_new:
            if a[1] <= WINDOW_PAIR_RADIUS:
                rows, cols = {}, {}
                for (u, v), c in a[0].items():
                    rows[u] = rows.get(u, 0) + c
                    cols[v] = cols.get(v, 0) + c
                yield 0, rows, None, "row sums"
                yield 0, cols, None, "column sums"

    def _close(self):
        self.rounds = 0
        self.stable = False
        f0_new = list(self.f0_items)
        f1_new = list(self.f1_items)
        while not self.stable and self.rounds < FUNCTION_ROUNDS:
            self.rounds += 1
            added0, added1 = [], []
            for arity, fn, radius, provenance in self._offers(f0_new,
                                                              f1_new):
                if arity == 0 and self._add_f0(fn, provenance):
                    added0.append(self.f0_items[-1])
                elif arity == 1 and self._add_f1(fn, radius, provenance):
                    added1.append(self.f1_items[-1])
            self.stable = not (added0 or added1)
            f0_new, f1_new = added0, added1

    # ---- read-out -------------------------------------------------------

    def f0_basis(self):
        return [fn for fn, _p in self.f0_items]

    def f1_basis(self):
        return [fn for fn, _r, _p in self.f1_items]

    def orbit_signatures(self):
        sig = {}
        for v in sorted(self.scene.core, key=self.scene.vertex_sort_key):
            sig[v] = tuple(fn.get(v, 0) for fn, _p in self.f0_items)
        return sig

    def pair_atoms(self):
        """Partition of the pair domain by the value vectors of the
        generated pair functions; the indicator of each class is a
        minimal projection of the commutative algebra at arity (1,1)."""
        classes = {}
        for p in self.pairs:
            key = tuple(fn.get(p, 0) for fn, _r, _p in self.f1_items)
            classes.setdefault(key, []).append(p)
        order = sorted(classes, key=lambda k: repr(sorted(
            (self.scene.vertex_sort_key(u), self.scene.vertex_sort_key(v))
            for (u, v) in classes[k])))
        return [classes[k] for k in order]


def _classes(table):
    """Class of each row of a 2-D integer array, numbered in the order
    of a lexicographic sort: rows are equal exactly when their classes
    are.  (np.unique(axis=0) sorts a structured view of the rows field
    by field, and took 7 times as long on a 60-vertex graph.)"""
    order = np.lexsort(table.T)
    ranked = table[order]
    new = np.ones(len(table), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    classes = np.empty(len(table), dtype=np.intp)
    classes[order] = np.cumsum(new) - 1
    return classes


def _coherent_atoms(graph):
    """The pair atoms of the coherent closure of the seeds on a finite
    graph, each a list of pairs, in the order of their least pairs.

    The seeds are the diagonal and the pinned count of every planar
    pattern on at most GADGET_VERTICES vertices at every pair of pins.
    Each pair starts coloured by its values under every seed (folded
    pattern by pattern as one walk of quantiso.pattern_trie yields
    their homomorphism rows, so only one pattern's counts are held at a
    time; the order of the folds does not change the partition) and is
    refined by 2-dimensional Weisfeiler-Leman,
    c'(u, v) = (c(u, v), c(v, u), multiset of (c(u, w), c(w, v))),
    until the number of colours stops growing.  Starting from every
    seed matters: a pattern with two pins can separate pairs that the
    refinement of the adjacency matrix alone does not.

    Pairs are flat indices u * q + v throughout.  Raises
    BudgetExceeded, before allocating, when a round's q^3 keys and
    their sorted copy or a join step of the walk would take more than
    quantiso.SIGNATURE_BUDGET_BYTES."""
    q = graph.vertex_count
    budget = quantiso.SIGNATURE_BUDGET_BYTES
    need = 2 * q ** 3 * 8
    if need > budget:
        raise BudgetExceeded(
            "the refinement keys on %d vertices need %d bytes, over the "
            "signature budget of %d bytes" % (q, need, budget))
    if q == 0:
        return []
    colour = np.eye(q, dtype=np.int64).reshape(-1)
    trie = quantiso.pattern_trie(GADGET_VERTICES)
    for _j, rows in trie.rows(graph, budget):
        counts = pinned_pair_counts(rows, q).reshape(-1, q * q)
        rows = None     # freed before the walk's next join
        colour = _classes(np.column_stack([colour, counts.T]))
    count = colour.max() + 1
    # row (u, v) of the table: c(u, v), c(v, u), then the keys
    # (c(u, w), c(w, v)) as one integer each, sorted over w
    table = np.empty((q, q, q + 2), dtype=np.int64)
    keys = table[:, :, 2:]
    while True:
        c = colour.reshape(q, q)
        table[:, :, 0] = c
        table[:, :, 1] = c.T
        np.add(c[:, None, :] * count, c.T[None, :, :], out=keys)
        keys.sort(axis=2)
        colour = _classes(table.reshape(q * q, q + 2))
        grown = colour.max() + 1
        if grown == count:
            break
        count = grown
    # the classes are numbered 0.. in row order; list them by least pair
    first = np.unique(colour, return_index=True)[1]
    members = np.split(np.argsort(colour, kind="stable"),
                       np.cumsum(np.bincount(colour))[:-1])
    atoms = []
    for k in np.argsort(first):
        us, vs = np.divmod(members[k], q)
        atoms.append(list(zip(us.tolist(), vs.tolist())))
    return atoms


def _pw_mul(a, b):
    if len(b) < len(a):
        a, b = b, a
    return {k: v * b[k] for k, v in a.items() if k in b}


def _diagonal(fn):
    """The vertex function u -> fn[(u, u)] of a pair function."""
    return {u: c for (u, v), c in fn.items() if u == v}


# ---------------------------------------------------------------------------
# sparse integer matrices indexed by vertex tuples

# A matrix at arity pair (n, m) maps keys ((i0..in), (j0..jm)) to values.
# Path form requires i0 == j0 and in == jm for every nonzero entry; all
# operations below preserve this.


def mat_mul(a, b):
    """Composition: sum_k a[i, k] * b[k, j]."""
    by_row = {}
    for (k, j), c in b.items():
        by_row.setdefault(k, []).append((j, c))
    out = {}
    for (i, k), c in a.items():
        for (j, d) in by_row.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0) + c * d
    # sums of nonnegative counts rarely cancel; copy only when one did
    if 0 in out.values():
        out = {k: v for k, v in out.items() if v != 0}
    return out


def mat_adjoint(a):
    return {(j, i): c for (i, j), c in a.items()}


def mat_tilde(a):
    """Reverse both tuples and swap their roles."""
    return {(tuple(reversed(j)), tuple(reversed(i))): c
            for (i, j), c in a.items()}


def rel_tensor(a, b):
    """Glued tensor: the last row label of `a` must equal the first row
    label of `b`, and likewise for columns; the shared labels appear once.
    The glue labels are read from each key, so keys of different lengths
    may be mixed; on path symbols this is their product."""
    by_corner = {}
    for (i, j), c in b.items():
        by_corner.setdefault((i[0], j[0]), []).append((i, j, c))
    out = {}
    for (i, j), c in a.items():
        for (i2, j2, d) in by_corner.get((i[-1], j[-1]), ()):
            key = (i + i2[1:], j + j2[1:])
            out[key] = out.get(key, 0) + c * d
    return out


def s_map(a):
    """Fold a square matrix at arity (n, n) into a column at (2n, 0):
    entry at row (i0..i2n) is a[(i0..in), (i2n..in)] when i0 == i2n."""
    out = {}
    for (i, j), c in a.items():
        if i[0] == j[0]:
            key = (i + tuple(reversed(j))[1:], (i[0],))
            out[key] = out.get(key, 0) + c
    return out


def t_map(a):
    """The companion fold: entry at (i0..i2n) is a[(in..i2n), (in..i0)]
    when i0 == i2n (reading the matrix from the middle outwards)."""
    out = {}
    for (i, j), c in a.items():
        if i[-1] == j[-1]:
            key = (tuple(reversed(j)) + i[1:], (j[-1],))
            out[key] = out.get(key, 0) + c
    return out


# ---------------------------------------------------------------------------
# Mor(n, m) by unfolding the column ladder (finite graphs)


# Mor(n, m) is served for n + m <= MOR_LEVEL.  The ladder is built one
# level higher, because a level can lack elements that only come down
# from the level above.
MOR_LEVEL = 4


def _unfold(arr, n, m):
    """The Mor(n, m) element of a level-(n + m) ladder array: the entry at
    ((i0..in), (j0..jm)) is arr[i0, .., in, j_{m-1}, .., j1], with
    j0 == i0 and jm == in (the loop is read from i0 to in, then back
    along the columns)."""
    idx = arr.nonzero()
    loop = [c.tolist() for c in idx]
    loop.append(loop[0])  # the closing vertex: i_M == i0
    rows = loop[:n + 1]
    cols = [loop[0]] + [loop[n + m - k] for k in range(1, m + 1)]
    return dict(zip(zip(zip(*rows), zip(*cols)), arr[idx].tolist()))


class MorEngine:
    """Generated intertwiner spans at every arity pair with n + m <=
    MOR_LEVEL, read off the column ladder by rotation.  The engine keeps
    its ladder, built to MOR_LEVEL + 1, for later extension; `sizes`
    holds each served level's length when the engine was made, and only
    that prefix is read, at every tuple (`ColumnLadder.elements`).
    `items` caches the unfolded bases of the pairs requested so far."""

    def __init__(self, graph, category="planar"):
        self.scene = function_engine(graph).scene
        self.ladder = ColumnLadder(graph, category, max_level=MOR_LEVEL + 1)
        self.rounds = self.ladder.rounds
        self.stable = self.ladder.stable
        self.sizes = {M: len(self.ladder.levels[M])
                      for M in range(MOR_LEVEL + 1)}
        self.items = {}

    def basis(self, n, m):
        if min(n, m) < 0 or n + m > MOR_LEVEL:
            raise ValidationError("arity pair (%d, %d) beyond n + m <= %d"
                                  % (n, m, MOR_LEVEL))
        if (n, m) not in self.items:
            M = n + m
            shape = self.ladder._shape(M)
            idx = np.arange(np.prod(shape)).reshape(shape)
            self.items[(n, m)] = [_unfold(a, n, m) for a in
                                  self.ladder.elements(M, self.sizes[M], idx)]
        return list(self.items[(n, m)])


# ---------------------------------------------------------------------------
# public containers


class MorBasis:
    """A generated spanning set of intertwiners at one arity pair."""

    def __init__(self, arity, matrices, category, scene, stable):
        self.arity = arity
        self.matrices = matrices
        self.category = category
        self.scene = scene
        self.stable = stable

    @property
    def rank(self):
        return len(self.matrices)


class OrbitPartition:
    def __init__(self, classes, category, exactness, compact,
                 matches_classical=None):
        self.classes = classes
        self.category = category
        self.exactness = exactness
        self.compact = compact
        self.matches_classical = matches_classical
        self.ids = {}
        for idx, cls in enumerate(classes):
            for v in cls:
                self.ids[v] = idx

    def orbit_of(self, v):
        return self.ids[v]


class MinimalProjection:
    def __init__(self, matrix, arity, block, d_left, d_right, exact,
                 residual=0):
        self.matrix = matrix
        self.arity = arity
        self.block = block
        self.d_left = d_left
        self.d_right = d_right
        self.rho = Fraction(d_right, d_left)
        self.exact = exact
        self.residual = residual


class MuAssignment:
    def __init__(self, mu, e, edge_ratio, cocycle_ok):
        self.mu = mu
        self.e = e
        self.edge_ratio = edge_ratio
        self.cocycle_ok = cocycle_ok

    def ratio(self, u, v):
        return self.mu[v] / self.mu[u]


class ConjugateSolution:
    def __init__(self, s, t, residual_left, residual_right,
                 trace_left_value, trace_right_value):
        self.s = s
        self.t = t
        self.residual_left = residual_left
        self.residual_right = residual_right
        self.trace_left_value = trace_left_value
        self.trace_right_value = trace_right_value


# ---------------------------------------------------------------------------
# engine caches, keyed by the graph itself: a FiniteGraph hashes and
# compares by its vertex count and edge set


_function_engines = {}
_mor_engines = {}


def function_engine(target, window=None):
    if isinstance(target, FiniteGraph):
        if target not in _function_engines:
            _function_engines[target] = FunctionEngine(Scene.finite(target))
        return _function_engines[target]
    return FunctionEngine(scene_for(target, window))


def mor_engine(graph, category="planar"):
    key = (graph, category)
    if key not in _mor_engines:
        _mor_engines[key] = MorEngine(graph, category=category)
    return _mor_engines[key]


# ---------------------------------------------------------------------------
# public operations


def generate_mor(target, n, m, category="planar", window=None):
    """Spanning set of the intertwiner space at arity pair (n, m).

    Arities (0,0) and (1,1) work on finite graphs and guarded windows;
    higher arities require a finite graph."""
    if (n, m) in ((0, 0), (1, 1)):
        fe = function_engine(target, window)
        if (n, m) == (0, 0):
            mats = [{((v,), (v,)): c for v, c in fn.items()}
                    for fn in fe.f0_basis()]
        else:
            mats = [{((u, v), (u, v)): c for (u, v), c in fn.items()}
                    for fn in fe.f1_basis()]
        return MorBasis((n, m), mats, category, fe.scene, fe.stable)
    if not isinstance(target, FiniteGraph):
        raise ValidationError(
            "higher-arity spans are only generated over finite graphs; "
            "windows support arities (0,0) and (1,1)")
    eng = mor_engine(target, category)
    mats = eng.basis(n, m)
    return MorBasis((n, m), mats, category, eng.scene, eng.stable)


def quantum_orbits(target, category="all", window=None):
    """Vertex partition induced by the generated invariant functions."""
    fe = function_engine(target, window)
    sig = fe.orbit_signatures()
    classes = {}
    for v, s in sig.items():
        classes.setdefault(s, []).append(v)
    ordered = sorted(classes.values(),
                     key=lambda c: fe.scene.vertex_sort_key(c[0]))
    matches = None
    if fe.scene.is_finite:
        exactness = "exact"
        compact = True
        # the brute-force automorphism search is optional; beyond its
        # limit the cross-check is reported as not made (None)
        if (category == "all"
                and fe.scene.graph.vertex_count <= DEFAULT_AUT_LIMIT):
            _auts, orb = classical_aut(fe.scene.graph)
            matches = sorted(map(sorted, ordered)) == sorted(
                map(sorted, orb))
    else:
        exactness = "depth-bounded(%d)" % fe.scene.radius
        boundary = set(fe.scene.vertices) - fe.scene.core
        compact = None if boundary else True
    return OrbitPartition(ordered, category, exactness, compact, matches)


def classical_certificate(graph, category="planar"):
    """Aut(G), as the list of `classical_aut` permutations, when the
    generated spans certify that the quantum group of the category is
    Aut(G); None when they do not, or past DEFAULT_AUT_LIMIT vertices.

    The certificate is that the generated level 4 (Mor(4, 0), functions
    on V^4) has as many elements as Aut has orbits on V^4, and that the
    generated vertex orbits are the Aut-orbits.  Why this suffices is
    set out in the docstring of `qgs.algebra`; for category "planar"
    the quantum group is QAut(G), so the graph has no quantum
    symmetry."""
    if graph.vertex_count > DEFAULT_AUT_LIMIT:
        return None
    eng = mor_engine(graph, category)
    # the ladder's level-4 representatives are one per Aut-orbit on V^4
    if eng.sizes[4] != len(eng.ladder.reps[4]):
        return None
    auts, orbits = classical_aut(graph)
    found = quantum_orbits(graph, category).classes
    if sorted(map(sorted, found)) != orbits:
        return None
    return auts


def _diagonal_basis(matrices):
    for mat in matrices:
        for (i, j) in mat:
            if i != j:
                return None
    return True


def minimal_projections(basis, tol=1e-9, seed=0):
    """Minimal projections of the algebra spanned at a square arity.

    A diagonal span (invariant tuple functions) gives exact indicator
    atoms.  Otherwise a random self-adjoint combination is diagonalized
    numerically; eigenprojections are kept when they lie in the span and
    cut out a one-dimensional corner."""
    n, m = basis.arity
    if n != m:
        raise ValidationError("minimal projections need a square arity")
    orbits = quantum_orbits(basis.scene.graph, category=basis.category) \
        if basis.scene.is_finite else None
    if _diagonal_basis(basis.matrices):
        return _diagonal_atoms(basis, orbits)
    return _spectral_projections(basis, orbits, tol, seed)


def _block_of(orbits, i):
    if orbits is None:
        return None
    return (orbits.orbit_of(i[0]), orbits.orbit_of(i[-1]))


def _diagonal_atoms(basis, orbits):
    profiles = {}
    for tup in {i for mat in basis.matrices for (i, _j) in mat}:
        key = tuple(mat.get((tup, tup), 0) for mat in basis.matrices)
        profiles.setdefault(key, []).append(tup)
    out = []
    span = RatSpan()
    for mat in basis.matrices:
        span.add(mat)
    for key in sorted(profiles, key=lambda k: sorted(
            map(repr, profiles[k]))):
        tuples = profiles[key]
        mat = {(t, t): 1 for t in tuples}
        exact = span.contains(mat)
        tl = partial_trace(mat, "left")
        tr = partial_trace(mat, "right")
        d_l = _orbit_constant(tl, orbits, tuples[0][0], basis.scene)
        d_r = _orbit_constant(tr, orbits, tuples[0][-1], basis.scene)
        if d_l is None or d_r is None:
            continue
        out.append(MinimalProjection(mat, basis.arity[0],
                                     _block_of(orbits, tuples[0]),
                                     d_l, d_r, exact))
    return out


def _orbit_constant(trace, orbits, v0, scene):
    keys = scene.core if orbits is None else \
        orbits.classes[orbits.orbit_of(v0)]
    vals = {trace.get(v, 0) for v in keys}
    return vals.pop() if len(vals) == 1 else None


def _spectral_projections(basis, orbits, tol, seed):
    """Eigenprojections P = v v^T of a random self-adjoint element that
    lie in the span, by least squares through the pseudo-inverse of the
    r x r Gram matrix of the basis, and cut out a one-dimensional
    corner: the compressions v^T a v have the singular values of P a P,
    since v is an isometry.  A Mor(n, n) element pairs (i0..in) only with
    tuples that share i0 and in, so the basis is stacked on these
    endpoint blocks, (r, q^2, s, s) over the s = q^(n - 1) interior
    tuples, and the eigenvalues of all blocks are clustered together."""
    q = basis.scene.graph.vertex_count
    interior = list(itertools.product(range(q), repeat=basis.arity[0] - 1))
    at = {t: k for k, t in enumerate(interior)}
    s = len(interior)
    stack = np.zeros((len(basis.matrices), q * q, s, s))
    for a, mat in zip(stack, basis.matrices):
        for (i, j), c in mat.items():
            a[i[0] * q + i[-1], at[i[1:-1]], at[j[1:-1]]] = float(c)
    flat = stack.reshape(len(stack), -1)
    rng = random.Random(seed)
    coeffs = [rng.uniform(0.5, 1.5) for _ in stack]
    h = sum(c * (a + a.swapaxes(1, 2)) / 2 for c, a in zip(coeffs, stack))
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(evals, axis=None, kind="stable")
    scale = max(1.0, float(np.max(np.abs(evals))))
    clusters = []
    for k, lam in zip(order.tolist(), evals.ravel()[order]):
        if clusters and abs(lam - clusters[-1][0]) < 1e3 * tol * scale:
            clusters[-1][1].append(k)
        else:
            clusters.append((lam, [k]))
    gram_inv = np.linalg.pinv(flat @ flat.T, hermitian=True,
                              rcond=len(flat) * np.finfo(float).eps)
    out = []
    for lam, ks in clusters:
        if abs(lam) < 1e3 * tol * scale:
            continue
        blocks, cols = np.divmod(ks, s)
        proj = np.zeros((q * q, s, s))
        corner = []
        for b in np.unique(blocks):
            v = evecs[b][:, cols[blocks == b]]
            proj[b] = v @ v.T
            corner.append((v.T @ stack[:, b] @ v).reshape(len(stack), -1))
        target = proj.ravel()
        residual = float(np.max(np.abs(
            (gram_inv @ (flat @ target)) @ flat - target)))
        if residual > 1e3 * tol:
            continue
        # cross-block entries of the corner are 0
        if np.linalg.matrix_rank(np.hstack(corner),
                                 tol=1e3 * tol * scale) != 1:
            continue
        # axes (i0, row interior, in, column interior): sorted key order
        proj = proj.reshape(q, q, s, s).transpose(0, 2, 1, 3)
        nz = np.nonzero(np.abs(proj) > tol)
        mat = {((i0,) + interior[a] + (i1,), (i0,) + interior[b] + (i1,)): x
               for i0, a, i1, b, x in zip(*(ax.tolist() for ax in nz),
                                          proj[nz].tolist())}
        anchor = max(mat, key=lambda k: abs(mat[k]))
        tl = partial_trace(mat, "left")
        tr = partial_trace(mat, "right")
        d_l = _float_orbit_constant(tl, orbits, anchor[0][0], tol)
        d_r = _float_orbit_constant(tr, orbits, anchor[0][-1], tol)
        if d_l is None or d_r is None:
            continue
        out.append(MinimalProjection(mat, basis.arity[0],
                                     _block_of(orbits, anchor[0]),
                                     d_l, d_r, False, residual=residual))
    return out


def _float_orbit_constant(trace, orbits, v0, tol):
    orbit = orbits.classes[orbits.orbit_of(v0)]
    vals = [float(trace.get(v, 0)) for v in orbit]
    mean = sum(vals) / len(vals)
    if max(abs(x - mean) for x in vals) > 1e3 * tol:
        return None
    r = round(mean)
    if abs(mean - r) > 1e3 * tol:
        return None
    return r


def conjugate_solutions(p):
    """Column solutions of the duality equations attached to a minimal
    projection at a square arity, with the zigzag and trace checks."""
    n = p.arity
    s = s_map(p.matrix)
    t = t_map(p.matrix)
    zig_l = _zigzag(s, t, n)
    zig_r = _zigzag(t, s, n)
    res_l = _mat_residual(zig_l, p.matrix)
    res_r = _mat_residual(zig_r, mat_tilde(p.matrix))
    tl = _fold_trace(s, p.matrix, n, "left")
    tr = _fold_trace(t, p.matrix, n, "right")
    return ConjugateSolution(s, t, res_l, res_r, tl, tr)


def _zigzag(s, t, n):
    tidx = {}
    for (q, _c), val in t.items():
        tidx.setdefault((q[0], q[1:n]), []).append((q[n:], val))
    out = {}
    for (r, _c), val in s.items():
        j, mid, i0 = r[:n + 1], r[n + 1:2 * n], r[2 * n]
        for (i, tv) in tidx.get((j[-1], mid), ()):
            if i[0] == i0:
                key = (i, j)
                out[key] = out.get(key, 0) + val * tv
    return out


def _mat_residual(a, b):
    keys = set(a) | set(b)
    worst = 0
    for k in keys:
        d = abs(a.get(k, 0) - b.get(k, 0))
        worst = max(worst, float(d))
    return worst


def _fold_trace(col, pmat, n, side):
    """Partial trace of the projection computed through a duality
    column; returns the per-vertex values, which must agree with the
    matching dimension on the block orbit."""
    out = {}
    cidx = {}
    for (r, c), val in col.items():
        cidx.setdefault(c[0], []).append((r, val))
    for j, rows in cidx.items():
        acc = 0
        for (r, v1) in rows:
            for (r2, v2) in rows:
                if side == "left":
                    if r[n:] == r2[n:]:
                        acc += v1 * v2 * pmat.get((r2[:n + 1], r[:n + 1]),
                                                  0)
                else:
                    if r[:n] == r2[:n]:
                        acc += v1 * v2 * pmat.get((r2[n:], r[n:]), 0)
        out[j] = acc
    return out


def mu_assignment(target, window=None, e=None):
    """Vertex weight from edge-atom dimension ratios, normalized at e.

    Each minimal edge atom of the pair-function span has a left and a
    right trace; their ratio is the multiplicative step across any edge
    in the atom.  The steps are propagated from the root and checked for
    consistency around the explored region."""
    fe = function_engine(target, window)
    scene = fe.scene
    if e is None:
        e = 0 if scene.is_finite else scene.provider.base_vertex
    ratio = {}
    for cls in fe.pair_atoms():
        edges = [(u, v) for (u, v) in cls
                 if u != v and v in scene.neighbors(u)]
        if not edges or len(edges) != len(cls):
            continue
        rows, cols = {}, {}
        for (u, v) in cls:
            rows[u] = rows.get(u, 0) + 1
            cols[v] = cols.get(v, 0) + 1
        d_l = set(rows[u] for u in rows if u in scene.core)
        d_r = set(cols[v] for v in cols if v in scene.core)
        if not d_l or not d_r:
            continue
        if len(d_l) != 1 or len(d_r) != 1:
            raise ValidationError("edge atom traces are not constant")
        step = Fraction(d_r.pop(), d_l.pop())
        for (u, v) in cls:
            ratio[(u, v)] = step
    mu = {e: Fraction(1)}
    todo = deque([e])
    cocycle_ok = True
    while todo:
        u = todo.popleft()
        if u not in scene.core:
            continue
        for v in scene.neighbors(u):
            if (u, v) not in ratio:
                continue
            val = mu[u] * ratio[(u, v)]
            if v in mu:
                if mu[v] != val:
                    cocycle_ok = False
            else:
                mu[v] = val
                todo.append(v)
    for (u, v), r in ratio.items():
        back = ratio.get((v, u))
        if back is None or r * back != 1:
            cocycle_ok = False
    return MuAssignment(mu, e, ratio, cocycle_ok)


def _walks(graph, n):
    """Diagonal indicator of the homomorphisms of the path on n + 1
    vertices into `graph`, in the lexicographic order of `hom_rows`."""
    if n < 0:
        raise ValidationError("walk length n = %d is negative" % n)
    rows = hom_rows(path_graph(n + 1), graph,
                    quantiso.SIGNATURE_BUDGET_BYTES)
    return {(w, w): 1 for w in map(tuple, rows.tolist())}


def _check_finite(target):
    if not isinstance(target, FiniteGraph):
        raise ValidationError("path projections and edge substitution "
                              "need a finite graph")


def path_projection(target, n):
    """Indicator of tuples that walk along edges for n steps: the rows
    of `hom_rows` of the path on n + 1 vertices.  Raises ValidationError
    for a negative n, and BudgetExceeded as hom_rows does."""
    _check_finite(target)
    return _walks(target, n)


def lambda_projection(target, n, lam):
    """Indicator of tuples whose consecutive steps stay within distance
    lam: the walks of n steps in the graph that joins u and v when
    their distance is at most lam, which has a loop at every vertex."""
    _check_finite(target)
    q = target.vertex_count
    dist = all_pairs_distances(target)
    near = FiniteGraph(q, [(u, v) for u in range(q) for v in range(q)
                           if 0 <= dist[u][v] <= lam])
    return _walks(near, n)


def ibf_basis(target, p, n, category="planar", tol=1e-9):
    """Isometries spanning the column space cut out by a minimal
    projection, orthonormalized in the inner product where W* V is a
    scalar multiple of the projection."""
    k = p.arity
    anchor = max(p.matrix, key=lambda key: abs(p.matrix[key]))
    pref = p.matrix[anchor]
    cands = []
    for b in generate_mor(target, n, k, category).matrices:
        c = mat_mul(_floatify(b), _floatify(p.matrix))
        if c:
            cands.append(c)
    # numerically independent subset
    universe = sorted({key for c in cands for key in c})
    uidx = {key: i for i, key in enumerate(universe)}
    rows = []
    kept = []
    for c in cands:
        row = np.zeros(len(universe))
        for key, val in c.items():
            row[uidx[key]] = float(val)
        trial = rows + [row]
        if np.linalg.matrix_rank(np.stack(trial), tol=1e-8) > len(rows):
            rows.append(row)
            kept.append(c)
    gram = np.zeros((len(kept), len(kept)))
    for a in range(len(kept)):
        for b in range(len(kept)):
            prod = mat_mul(mat_adjoint(kept[a]), kept[b])
            gram[a, b] = float(prod.get(anchor, 0)) / float(pref)
    evals, evecs = np.linalg.eigh(gram)
    iso = []
    for idx in range(len(evals)):
        if evals[idx] <= 1e3 * tol:
            continue
        w = evecs[:, idx] / (evals[idx] ** 0.5)
        mat = {}
        for coef, c in zip(w, kept):
            for key, val in c.items():
                mat[key] = mat.get(key, 0) + coef * float(val)
        iso.append({k2: v for k2, v in mat.items() if abs(v) > tol})
    # verification: V_i* V_j = delta_ij P
    worst = 0.0
    for a in range(len(iso)):
        for b in range(len(iso)):
            prod = mat_mul(mat_adjoint(iso[a]), iso[b])
            targetm = _floatify(p.matrix) if a == b else {}
            worst = max(worst, _mat_residual(prod, targetm))
    return iso, worst


def _floatify(mat):
    out = {}
    for k, v in mat.items():
        out[k] = float(v) if isinstance(v, Fraction) else v
    return out


def edge_substitute(pattern, x1, x2, assignment, target):
    """Evaluate a pointed pattern whose oriented edges carry pair
    functions: sum over all vertex maps of the product of edge values,
    with the two marked vertices pinned.  Returns a pair function, its
    nonzero entries in sorted pair order.

    A map of nonzero weight is a homomorphism of the glued pattern (the
    assigned edges) into the support graph (an edge {u, v} for every
    nonzero (u, v) of an assigned function), so the sum runs over the
    rows of `hom_rows`; the weights are multiplied as given, so
    Fraction values stay exact.  Raises BudgetExceeded as hom_rows
    does."""
    _check_finite(target)
    glued = FiniteGraph(pattern.vertex_count, assignment)
    dist = all_pairs_distances(glued)
    if any(dist[x1][v] < 0 and dist[x2][v] < 0
           for v in range(pattern.vertex_count)):
        raise ValidationError("pattern vertex not connected to the pins")
    support = FiniteGraph(target.vertex_count,
                          [p for fn in assignment.values()
                           for p, c in fn.items() if c])
    total = {}
    for row in hom_rows(glued, support,
                        quantiso.SIGNATURE_BUDGET_BYTES).tolist():
        w = 1
        for (a, b), fn in assignment.items():
            w *= fn.get((row[a], row[b]), 0)
        key = (row[x1], row[x2])
        total[key] = total.get(key, 0) + w
    return {p: total[p] for p in sorted(total) if total[p]}


# ---------------------------------------------------------------------------
# column spaces at higher arity: dense ladder over closed tuples

# An element of the intertwiner space at arity pair (M, 0) in path form
# is supported on closed tuples (i0..iM) with iM == i0, recorded with
# column label (i0,), so it is an integer function of the free
# coordinates (i0..i_{M-1}).  The span is generated by a ladder of tuple
# operations: duplicating a coordinate, scaling an edge of the loop by a
# generated pair function, scaling a coordinate by a generated vertex
# function, summing out or merging coordinates, and reversing the loop.
# Elements are stored by their exact values at one tuple per Aut-orbit,
# and independence is decided there by row reduction modulo a large
# prime.

_SPAN_PRIME = 67108859
# Every f0/f1 entry and every accepted level entry of the ladder is below
# this in magnitude.  Each ladder operation multiplies at most two such
# factors or sums q of them, so no int64 product or sum can overflow.
LADDER_ENTRY_BOUND = 2 ** 31


class SpanModP:
    """Incremental row space modulo a prime, for rank decisions.

    Inputs are integer arrays of `dim` entries in any shape, such as a
    column-ladder candidate's orbit row.  A zero input is rejected at
    once.  Every other input is remembered by the bytes of its nonzero
    positions and values, and a repeat is rejected without eliminating.
    This is exact: after the first offer the vector lies in the span,
    and a span only grows, so the repeat would reduce to zero anyway.
    Once the rank reaches `dim` the span is the whole space, and every
    input is rejected at once.  Elimination reduces one input at a time
    against the stored rows, in place."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []
        self.pivots = []
        self.seen = set()

    def add(self, vec):
        if self.full:
            return False
        p = _SPAN_PRIME
        v = np.asarray(vec, dtype=np.int64).ravel()
        nz = v.nonzero()[0]
        if len(nz) == 0:
            return False
        # positions and values have equal byte lengths, so the join is
        # unambiguous
        key = nz.tobytes() + v[nz].tobytes()
        if key in self.seen:
            return False
        self.seen.add(key)
        v = v % p
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                v -= f * row
                v %= p
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        inv = pow(int(v[c]), p - 2, p)
        v = (v * inv) % p
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self):
        return len(self.rows)

    @property
    def full(self):
        return len(self.rows) == self.dim


def least_images(auts, q, k):
    """The least image of every flat index of V^k under the permutation
    group `auts` of range(q), that is, the smallest flat index of its
    orbit.  The indices equal to their least image are the orbit
    representatives, one per orbit.  One image array is built at a
    time, so memory is O(q^k) and time O(|auts| q^k)."""
    least = np.arange(q ** k)
    for perm in auts:
        step = np.asarray(perm, dtype=np.int64)
        img = step
        for _ in range(k - 1):
            img = (img[:, None] * q + step).ravel()
        np.minimum(least, img, out=least)
    return least


LADDER_ROUNDS = 10
# A ladder raises BudgetExceeded before its least-image and orbit-index
# tables, its stored orbit rows and its spans' rows would take more bytes.
LADDER_BUDGET_BYTES = 2 ** 31


class ColumnLadder:
    """Exact generated bases of the column spaces at arities (M, 0).

    Levels live in Aut-orbit coordinates: `least[M]` holds the least
    image (`least_images`) of every flat index of the free coordinates
    V^max(M, 1) under the classical automorphism group, and `reps[M]`
    the indices equal to theirs, one per orbit.  The seeds and every
    operation of the closure commute with Aut, so every element is
    Aut-invariant, and its values at `reps[M]` determine it, over Q and
    modulo the prime: each accept decision is the one the full arrays
    would give.  `levels[M]` stores each element as its orbit row, the
    int64 vector of those values led by a 0 (entry 1 + k is the value at
    reps[M][k]); the span is offered the row without the 0, and
    `elements` reads rows at any tuples, through `least[M]`.  The span's
    dimension is the Burnside count, so a level whose rank reaches it
    holds every invariant vector, and the closure computes no candidate
    for it.  Past DEFAULT_AUT_LIMIT vertices no automorphism is used,
    and every tuple is its own representative.

    Each closure operation has one definition, its broadcast method on
    full arrays.  Its gather, which computes a candidate's orbit row
    from its operands', is that method applied once to the operand
    level's orbit index array (each tuple's orbit number plus one, so
    that 0 reads an empty position), read at the representatives.

    Construction extends an empty ladder (`extend`).  Raises
    BudgetExceeded when an f0/f1 entry or an accepted level entry
    reaches LADDER_ENTRY_BOUND in magnitude, and before the least-image
    tables (and their computation), the orbit index arrays, the stored
    rows and the spans' rows would take more than LADDER_BUDGET_BYTES."""

    def __init__(self, graph, category="planar", max_level=6):
        self.graph = graph
        self.category = category
        self.q = graph.vertex_count
        fe = function_engine(graph)
        # the seeds, stacked: one (q, q) matrix per pair function and one
        # (q,) vector per vertex function
        f1, f0 = fe.f1_basis(), fe.f0_basis()
        self.f1_mats = np.zeros((len(f1), self.q, self.q), dtype=np.int64)
        for w, fn in zip(self.f1_mats, f1):
            for (u, v), c in fn.items():
                w[u, v] = c
            self._check_entries(w)
        self.f0_vecs = np.zeros((len(f0), self.q), dtype=np.int64)
        for w, fn in zip(self.f0_vecs, f0):
            for u, c in fn.items():
                w[u] = c
            self._check_entries(w)
        self.auts = (classical_aut(graph)[0] if self.q <= DEFAULT_AUT_LIMIT
                     else [])
        self.max_level = -1
        self.stable = True
        self.least, self.reps, self.levels = {}, {}, {}
        self.held = 0  # bytes counted against LADDER_BUDGET_BYTES
        self.extend(max_level)

    def extend(self, max_level):
        """Close the ladder up to level max_level.  Stored rows are kept,
        and they are the first frontier; if the ladder was stable, its
        closure offered their candidates up to the old top level, so the
        first round computes only those above it.  Levels only grow, and
        `max_level` moves once the closure has returned."""
        top = self.max_level
        if max_level <= top:
            return
        for M in range(top + 1, max_level + 1):
            if M in self.levels:
                # a stopped extension left this level: its least images
                # are kept, and its rows dropped
                self.held -= sum(row.nbytes for row in self.levels[M])
            elif M == 1:  # levels 0 and 1 both have the coordinates V
                self.least[1], self.reps[1] = self.least[0], self.reps[0]
            else:
                size = self.q ** max(M, 1)
                # least_images holds about three image arrays while it
                # runs, and one is kept
                self._reserve(3 * 8 * size)
                self.held -= 2 * 8 * size
                self.least[M] = least_images(self.auts, self.q, max(M, 1))
                self.reps[M] = np.flatnonzero(self.least[M] ==
                                              np.arange(size))
            self.levels[M] = []
        try:
            self._begin(max_level)
            self._seed(max_level)
            self._close(max_level, top if self.stable else -1)
        finally:
            self._end()
        self.max_level = max_level

    def elements(self, M, count, idx):
        """The first `count` elements of level M at the flat tuple
        indices `idx`, read through their least images: an int64 array
        of shape (count,) + idx.shape."""
        cols = self._orbit_index(M, self.least[M][idx])
        return np.array([row[cols] for row in self.levels[M][:count]],
                        dtype=np.int64).reshape((-1,) + cols.shape)

    def _orbit_index(self, M, least):
        # the position in a level-M orbit row of each least image
        return np.searchsorted(self.reps[M], least) + 1

    def _begin(self, max_level):
        """The state of a closure, which `_end` drops: each level's orbit
        index array, its span, re-offered its stored rows, and the
        gathers derived so far."""
        self.spans, self._index, self._gathers = {}, {}, {}
        for M in range(max_level + 1):
            dim = len(self.reps[M])
            # the orbit index array, and the span's copy of each stored row
            self._reserve(8 * (self.least[M].size
                               + dim * len(self.levels[M])))
            self._index[M] = self._orbit_index(M, self.least[M]).reshape(
                self._shape(M))
            self.spans[M] = SpanModP(dim)
            for row in self.levels[M]:
                self.spans[M].add(row[1:])

    def _end(self):
        # a span's row that could not be stored was never counted
        self.held -= sum(8 * (self._index[M].size
                              + span.dim * len(self.levels[M]))
                         for M, span in self.spans.items())
        del self.spans, self._index, self._gathers

    # level M arrays have shape (q,) * max(M, 1); index t is loop
    # coordinate i_t, and the loop closes with i_M == i_0.

    def _shape(self, M):
        return (self.q,) * max(M, 1)

    def _check_entries(self, arr):
        top = int(np.abs(arr).max())
        if top >= LADDER_ENTRY_BOUND:
            raise BudgetExceeded("ladder entry %d reaches the ladder entry "
                                 "bound %d" % (top, LADDER_ENTRY_BOUND))

    def _reserve(self, nbytes):
        if self.held + nbytes > LADDER_BUDGET_BYTES:
            raise BudgetExceeded(
                "the column ladder of a %d-vertex graph needs %d bytes, "
                "over LADDER_BUDGET_BYTES = %d"
                % (self.q, self.held + nbytes, LADDER_BUDGET_BYTES))
        self.held += nbytes

    def _offer(self, M, vec):
        """Offer a level-M candidate by its orbit row `vec`, without the
        leading 0; store it once the span accepts it."""
        if not self.spans[M].add(vec):
            return False
        self._check_entries(vec)
        # the stored row and the span's reduced copy
        self._reserve(8 * (2 * len(vec) + 1))
        self.levels[M].append(np.concatenate(([0], vec), dtype=np.int64))
        return True

    def _add(self, M, arr):
        return self._offer(M, self._at(arr, M))

    def _seed(self, max_level):
        for fn in self.f0_vecs:
            self._add(0, fn)
            self._add(1, fn)
        if max_level >= 2:
            for w in self.f1_mats:
                self._add(2, w)

    def _dup(self, arr, M, p):
        # duplicate coordinate p, or the closing vertex i0 at the end
        a, b = (p, p + 1) if p < M else (0, M)
        out = np.zeros(self._shape(M + 1), dtype=np.int64)
        idx = np.arange(self.q)
        np.moveaxis(out, (a, b), (0, 1))[idx, idx] = np.moveaxis(arr, a, 0)
        return out

    def _scale_edge(self, arr, M, t, w):
        a, b = t, (t + 1) % M
        if a == b:  # loop of length one: the edge is (i0, i0)
            return arr * np.diagonal(w)
        shape = [1] * M
        shape[a] = shape[b] = self.q
        # the wrap edge t = M - 1 runs from axis M - 1 back to axis 0
        return arr * (w if a < b else w.T).reshape(shape)

    def _scale_vertex(self, arr, M, t, f):
        shape = [1] * max(M, 1)
        shape[t] = self.q
        return arr * f.reshape(shape)

    def _cap(self, arr, p):
        return self._cap_terms(arr, p).sum(axis=-1)

    def _cap_terms(self, arr, p):
        """The terms the cap at coordinate p sums, along the last axis."""
        return np.moveaxis(arr, p, -1)

    def _merge(self, arr, M, p):
        if p == M - 1:  # wrap: identify i_{M-1} with the closing i0
            d = np.diagonal(arr, axis1=M - 1, axis2=0)
            return np.moveaxis(d, -1, 0)
        d = np.diagonal(arr, axis1=p, axis2=p + 1)
        return np.moveaxis(d, -1, p)

    def _reverse(self, arr, M):
        if M <= 1:
            return arr
        axes = [0] + list(range(M - 1, 0, -1))
        return np.transpose(arr, axes)

    def _rotate(self, arr, M):
        """Re-base the loop at its second coordinate."""
        if M <= 1:
            return arr
        return np.transpose(arr, list(range(1, M)) + [0])

    def _wedge(self, x, kx, y, ky):
        """Glue two loops at a shared basepoint, traversing x then y."""
        q = self.q
        prod = (x.reshape(x.shape + (1,) * (ky - 1))
                * y.reshape((q,) + (1,) * (kx - 1) + y.shape[1:]))
        out = np.zeros(self._shape(kx + ky), dtype=np.int64)
        idx = np.arange(q)
        np.moveaxis(out, (0, kx), (0, 1))[idx, idx] = prod
        return out

    # Candidates in orbit coordinates.  `row` arguments are stored orbit
    # rows, led by 0.  Each gather is the operation's broadcast method
    # applied to orbit index arrays (or to ones, or to the codes of a
    # scaling's entries), read at the representatives of the candidate's
    # level.

    def _gather(self, key, derive):
        if key not in self._gathers:
            self._gathers[key] = derive()
        return self._gathers[key]

    def _at(self, arr, M):
        return np.ravel(arr)[self.reps[M]]

    def _ones(self, M):
        return np.ones(self._shape(M), dtype=np.int64)

    def _moved(self, K, op, M, row, *rest):
        """The orbit row of op(arr, *rest) at level K, for the rotation,
        reversal, crossing, merge and dup, which read one entry of arr
        per tuple, or none."""
        return row[self._gather((op, M) + rest, lambda: self._at(
            op(self._index[M], *rest), K))]

    def _scaled(self, op, M, row, t, vs):
        """The orbit rows of _scale_edge or _scale_vertex(arr, M, t, v)
        for every v in the stack `vs`, one row each."""
        shape = vs.shape[1:]
        g = self._gather((op, M, t), lambda: self._at(op(
            self._ones(M), M, t,
            np.arange(self.q ** len(shape)).reshape(shape)), M))
        return row[1:] * vs.reshape(len(vs), -1).take(g, axis=1)

    def _capped(self, M, row, p):
        """The orbit row of _cap(arr, p): a (B_(M-1), q) gather, summed."""
        g = self._gather((self._cap, M, p), lambda: self._cap_terms(
            self._index[M], p).reshape(-1, self.q)[self.reps[M - 1]])
        return row[g].sum(axis=1)

    def _wedged(self, xrow, kx, yrow, ky):
        """The orbit row of _wedge(x, kx, y, ky): 0 where i_kx != i_0."""
        gx, gy = self._gather((self._wedge, kx, ky), lambda: [
            self._at(self._wedge(x, kx, y, ky), kx + ky) for x, y in
            ((self._index[kx], self._ones(ky)),
             (self._ones(kx), self._index[ky]))])
        return xrow[gx] * yrow[gy]

    def _close(self, max_level, floor):
        # the first round computes no candidate at level `floor` or below
        self.rounds = 0
        self.stable = False
        levels = self.levels
        frontier = {M: range(len(levels[M])) for M in levels}
        for _ in range(LADDER_ROUNDS):
            self.rounds += 1
            added = {M: [] for M in levels}

            def is_open(K):
                # a full level would reject every candidate
                return floor < K <= max_level and not self.spans[K].full

            def emit(K, cand):
                # compute the orbit row cand() only for an open level
                if is_open(K) and self._offer(K, cand()):
                    added[K].append(len(levels[K]) - 1)

            def moved(K, op, M, row, *rest):
                emit(K, lambda: self._moved(K, op, M, row, *rest))

            def scaled(op, M, row, t, vs):
                # one gather gives the candidates of every w (or f) at t;
                # a zero candidate is rejected, so it is not offered
                if is_open(M):
                    cands = self._scaled(op, M, row, t, vs)
                    for k in np.flatnonzero(cands.any(axis=1)):
                        emit(M, lambda: cands[k])

            for M in range(max_level + 1):
                for i in frontier[M]:
                    row = levels[M][i]
                    if M >= 2:
                        moved(M, self._rotate, M, row, M)
                        for ky in range(1, max_level - M + 1):
                            for y in levels[ky]:
                                emit(M + ky,
                                     lambda: self._wedged(row, M, y, ky))
                                emit(M + ky,
                                     lambda: self._wedged(y, ky, row, M))
                    if self.category == "all":
                        # the crossing of two interior loop coordinates
                        for p in range(1, M - 1):
                            moved(M, np.swapaxes, M, row, p, p + 1)
                    if M >= 1:
                        moved(M, self._reverse, M, row, M)
                        for t in range(M):
                            scaled(self._scale_edge, M, row, t,
                                   self.f1_mats)
                        for t in range(M):
                            scaled(self._scale_vertex, M, row, t,
                                   self.f0_vecs)
                    if M >= 1 and M < max_level:
                        for p in range(M + 1):
                            moved(M + 1, self._dup, M, row, M, p)
                    if M >= 2:
                        for p in range(1, M):
                            emit(M - 1, lambda: self._capped(M, row, p))
                        for p in range(M - 1, M):
                            moved(M - 1, self._merge, M, row, M, p)
                        for p in range(1, M - 1):
                            moved(M - 1, self._merge, M, row, M, p)
            frontier = added
            floor = -1
            if not any(added.values()):
                self.stable = True
                break
