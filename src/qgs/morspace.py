"""Morphism-space linear algebra on graph windows.

Spans of homomorphism matrices in path form (the first entries of the two
label tuples agree, and likewise the last entries) are generated by a
closure procedure.  From the generated spans we read off quantum orbits,
minimal projections with left/right dimensions, the modular vertex weight
mu, conjugate solutions for the duality equations, and the edge
substitution that evaluates a pointed planar pattern with matrix-valued
edges.

Two engines cooperate.  A function engine works at arities (0,0) and
(1,1), where every span element is a function on vertices or on vertex
pairs; it runs on finite graphs and on guarded windows of infinite
providers.  A closure engine for higher arities runs on small finite
graphs and keeps exact integer sparse matrices indexed by vertex tuples.
"""

from fractions import Fraction
import itertools
import random

from .graphs import (DEFAULT_AUT_LIMIT, FiniteGraph, ValidationError,
                     all_pairs_distances, ball, classical_aut)
from .bilabeled import BiLabeled, circular_gadget
from .hommat import _enumerate_homs, hom_matrix, partial_trace
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
# catalogue of small pointed gadgets


def _connected_graphs_upto(max_vertices):
    """Connected loop-free graphs on 1..max_vertices vertices, one per
    isomorphism class (brute-force canonical form; sizes are tiny)."""
    out = []
    seen = set()
    for nv in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            g = FiniteGraph(nv, edges)
            if not g.is_connected():
                continue
            canon = min(
                tuple(sorted(tuple(sorted((p[u], p[v])))
                             for (u, v) in edges))
                for p in itertools.permutations(range(nv)))
            if (nv, canon) in seen:
                continue
            seen.add((nv, canon))
            out.append(g)
    return out


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

# Seed patterns on finite graphs have at most this many vertices.
GADGET_VERTICES = 4
FUNCTION_ROUNDS = 8
# On windows, row and column sums are taken only of pair functions whose
# support radius is at most this.
WINDOW_PAIR_RADIUS = 1


class FunctionEngine:
    """Generated spans of vertex functions and pair functions.

    Pair functions carry a support radius; on windows only pointwise
    operations are used and row/column sums are taken only for functions
    whose support radius fits inside the recorded pair domain."""

    def __init__(self, scene, category="planar"):
        self.scene = scene
        self.category = category
        self._build_domain()
        self._seed()
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

    def _eval_pair_gadget(self, graph, x1, x2):
        """Exact pinned counts of a pointed-pair pattern on every pair of
        the domain, as a homomorphism count of `graph` with x1, x2
        pinned.  Returns (function dict, support radius)."""
        s = self.scene
        fn = {}
        blg = BiLabeled(graph, (x1, x2), (x1, x2))
        if s.is_finite:
            hm = hom_matrix(blg, s.graph)
            for (i, _j), c in hm.entries.items():
                fn[i] = c
        else:
            for (u, v) in self.pairs:
                if x1 == x2 and u != v:
                    continue
                pins = {x1: u, x2: v}
                count = [0]
                _enumerate_homs(blg, s.provider.neighbors, None, pins,
                                lambda phi: count.__setitem__(
                                    0, count[0] + 1))
                if count[0]:
                    fn[(u, v)] = count[0]
        # pins at graph distance > their distance in the pattern give 0
        radius = _pattern_distance(graph, x1, x2)
        return fn, radius

    def _eval_point_gadget(self, graph, x1):
        s = self.scene
        fn = {}
        blg = BiLabeled(graph, (x1,), (x1,))
        if s.is_finite:
            hm = hom_matrix(blg, s.graph)
            for (i, _j), c in hm.entries.items():
                fn[i[0]] = c
        else:
            for u in self.eval_verts:
                count = [0]
                _enumerate_homs(blg, s.provider.neighbors, None, {x1: u},
                                lambda phi: count.__setitem__(
                                    0, count[0] + 1))
                if count[0]:
                    fn[u] = count[0]
        return fn

    def _seed(self):
        s = self.scene
        self.f0_items = []           # (dict vertex -> int, provenance)
        self.f1_items = []           # (dict pair -> int, radius, provenance)
        self.f0_span = RatSpan()
        self.f1_span = RatSpan()
        delta = {(u, u): 1 for u in self.eval_verts}
        self._add_f1(delta, 0, "diagonal")
        if s.is_finite:
            catalogue = _connected_graphs_upto(GADGET_VERTICES)
            for g in catalogue:
                for x1 in range(g.vertex_count):
                    fn = self._eval_point_gadget(g, x1)
                    self._add_f0(fn, "pointed pattern %d vertices" %
                                 g.vertex_count)
                    for x2 in range(g.vertex_count):
                        fn, rad = self._eval_pair_gadget(g, x1, x2)
                        self._add_f1(fn, rad, "pattern pair")
        else:
            slim = [(FiniteGraph(2, [(0, 1)]), 0, 1, "edge"),
                    (_square_diag_graph(), 0, 1, "square+diagonal"),
                    (FiniteGraph(3, [(0, 1), (1, 2), (2, 0)]), 0, 1,
                     "triangle"),
                    (FiniteGraph(3, [(0, 1), (1, 2)]), 0, 0,
                     "walk-2 return"),
                    (_square_diag_graph(), 0, 3, "square+diagonal far"),
                    (_double_square_diag_graph(), 0, 4,
                     "square+diagonal chained")]
            for g, x1, x2, name in slim:
                fn, rad = self._eval_pair_gadget(g, x1, x2)
                self._add_f1(fn, rad, name)
            for g, x1, name in [(FiniteGraph(2, [(0, 1)]), 0, "degree"),
                                (_square_diag_graph(), 0, "square+diag pt"),
                                (FiniteGraph(3, [(0, 1), (1, 2), (2, 0)]),
                                 0, "triangle pt")]:
                fn = self._eval_point_gadget(g, x1)
                self._add_f0(fn, name)

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

    def _close(self):
        s = self.scene
        self.rounds = 0
        self.stable = False
        f0_new = list(self.f0_items)
        f1_new = list(self.f1_items)
        for _ in range(FUNCTION_ROUNDS):
            self.rounds += 1
            added0, added1 = [], []
            # pointwise products
            for a in f1_new:
                for b in self.f1_items:
                    prod = _pw_mul(a[0], b[0])
                    if self._add_f1(prod, min(a[1], b[1]), "product"):
                        added1.append(self.f1_items[-1])
            for a in f0_new:
                for b in self.f0_items:
                    prod = _pw_mul(a[0], b[0])
                    if self._add_f0(prod, "product"):
                        added0.append(self.f0_items[-1])
            # swap, diagonal restriction, boundary scalings
            for a in list(f1_new):
                sw = {(v, u): c for (u, v), c in a[0].items()}
                if self._add_f1(sw, a[1], "swap"):
                    added1.append(self.f1_items[-1])
                di = {u: c for (u, v), c in a[0].items() if u == v}
                if self._add_f0(di, "diagonal"):
                    added0.append(self.f0_items[-1])
            for f0 in f0_new:
                for a in self.f1_items:
                    left = {(u, v): f0[0].get(u, 0) * c
                            for (u, v), c in a[0].items()
                            if f0[0].get(u, 0)}
                    if self._add_f1(left, a[1], "left scaling"):
                        added1.append(self.f1_items[-1])
                    right = {(u, v): c * f0[0].get(v, 0)
                             for (u, v), c in a[0].items()
                             if f0[0].get(v, 0)}
                    if self._add_f1(right, a[1], "right scaling"):
                        added1.append(self.f1_items[-1])
            # row/column sums where the support provably fits the domain
            for a in f1_new:
                if s.is_finite or a[1] <= WINDOW_PAIR_RADIUS:
                    rows, cols = {}, {}
                    for (u, v), c in a[0].items():
                        rows[u] = rows.get(u, 0) + c
                        cols[v] = cols.get(v, 0) + c
                    if self._add_f0(rows, "row sums"):
                        added0.append(self.f0_items[-1])
                    if self._add_f0(cols, "column sums"):
                        added0.append(self.f0_items[-1])
            # convolution is exact on finite scenes only
            if s.is_finite:
                for a in f1_new:
                    for b in self.f1_items:
                        for x, y in ((a, b), (b, a)):
                            conv = mat_mul(x[0], y[0])
                            if self._add_f1(conv, x[1] + y[1],
                                            "convolution"):
                                added1.append(self.f1_items[-1])
            if not added0 and not added1:
                self.stable = True
                break
            f0_new, f1_new = added0, added1
        else:
            self.stable = not (added0 or added1)

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


def _pw_mul(a, b):
    if len(b) < len(a):
        a, b = b, a
    return {k: v * b[k] for k, v in a.items() if k in b}


def _pattern_distance(graph, x1, x2):
    from collections import deque
    if x1 == x2:
        return 0
    dist = {x1: 0}
    todo = deque([x1])
    while todo:
        u = todo.popleft()
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                if w == x2:
                    return dist[w]
                todo.append(w)
    return graph.vertex_count  # disconnected pins never constrain


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


def dup_row(a, p):
    """Insert a duplicate of row coordinate p right after it."""
    out = {}
    for (i, j), c in a.items():
        key = (i[:p + 1] + (i[p],) + i[p + 1:], j)
        out[key] = out.get(key, 0) + c
    return out


def dup_col(a, p):
    out = {}
    for (i, j), c in a.items():
        key = (i, j[:p + 1] + (j[p],) + j[p + 1:])
        out[key] = out.get(key, 0) + c
    return out


def cap_row(a, p, n):
    """Sum out interior row coordinate p (0 < p < n)."""
    if not 0 < p < n:
        raise ValidationError("only interior coordinates may be summed out")
    out = {}
    for (i, j), c in a.items():
        key = (i[:p] + i[p + 1:], j)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def cap_col(a, p, m):
    if not 0 < p < m:
        raise ValidationError("only interior coordinates may be summed out")
    out = {}
    for (i, j), c in a.items():
        key = (i, j[:p] + j[p + 1:])
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def merge_row(a, p):
    """Restrict to entries where row coordinates p, p+1 agree, keep one."""
    out = {}
    for (i, j), c in a.items():
        if i[p] == i[p + 1]:
            key = (i[:p] + i[p + 1:], j)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def merge_col(a, p):
    out = {}
    for (i, j), c in a.items():
        if j[p] == j[p + 1]:
            key = (i, j[:p] + j[p + 1:])
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def scale_row(a, p, fn1):
    """Multiply entries by a pair function of row coordinates (p, p+1)."""
    out = {}
    for (i, j), c in a.items():
        w = fn1.get((i[p], i[p + 1]), 0)
        if w:
            out[(i, j)] = c * w
    return out


def scale_col(a, p, fn1):
    out = {}
    for (i, j), c in a.items():
        w = fn1.get((j[p], j[p + 1]), 0)
        if w:
            out[(i, j)] = c * w
    return out


def scale_point(a, p, fn0, side="row"):
    out = {}
    for (i, j), c in a.items():
        w = fn0.get(i[p] if side == "row" else j[p], 0)
        if w:
            out[(i, j)] = c * w
    return out


def s_map(a, n):
    """Fold a square matrix at arity (n, n) into a column at (2n, 0):
    entry at row (i0..i2n) is a[(i0..in), (i2n..in)] when i0 == i2n."""
    out = {}
    for (i, j), c in a.items():
        if i[0] == j[0]:
            key = (i + tuple(reversed(j))[1:], (i[0],))
            out[key] = out.get(key, 0) + c
    return out


def t_map(a, n):
    """The companion fold: entry at (i0..i2n) is a[(in..i2n), (in..i0)]
    when i0 == i2n (reading the matrix from the middle outwards)."""
    out = {}
    for (i, j), c in a.items():
        if i[-1] == j[-1]:
            key = (tuple(reversed(j)) + i[1:], (j[-1],))
            out[key] = out.get(key, 0) + c
    return out


# ---------------------------------------------------------------------------
# higher-arity closure engine (finite graphs)


# MorEngine's arity caps: rows n <= ROW_CAP, columns m <= min(n, COL_CAP),
# and the square pairs (n, n) with n <= SQUARE_CAP.
ROW_CAP = 4
COL_CAP = 2
SQUARE_CAP = 2
MOR_ROUNDS = 10
# The closure stops after the round in which the stored items exceed this.
MOR_SIZE_BUDGET = 200000


class MorEngine:
    """Generated intertwiner spans at all arity pairs up to caps.

    Works over a finite graph with exact integer matrices.  The closure
    applies composition, adjoints, reversal, glued tensors, coordinate
    duplication and contraction, folds of square matrices into columns,
    and scalings by generated vertex/pair functions, until no span grows."""

    def __init__(self, graph, category="planar"):
        self.graph = graph
        self.category = category
        self.scene = Scene.finite(graph)
        self.fe = FunctionEngine(self.scene, category=category)
        self.pairs = sorted(
            {(n, m) for n in range(ROW_CAP + 1)
             for m in range(min(n, COL_CAP) + 1)} |
            {(n, n) for n in range(SQUARE_CAP + 1)})
        self.spans = {pq: RatSpan() for pq in self.pairs}
        self.items = {pq: [] for pq in self.pairs}
        self._seed()
        self._close()
        # the spans' seen-sets are only needed while closing
        del self.spans

    def _add(self, pq, mat):
        if not mat:
            return False
        if self.spans[pq].add(mat):
            self.items[pq].append(mat)
            return True
        return False

    def _seed(self):
        g = self.graph
        nv = g.vertex_count
        # distance-profile diagonals at square arities
        rows = all_pairs_distances(g)
        dist = {(i, j): d for i in range(nv) for j, d in enumerate(rows[i])
                if d >= 0}
        dvals = sorted(set(dist.values()))
        for n in range(min(3, ROW_CAP) + 1):
            if (n, n) not in self.items:
                continue
            for prof in itertools.product(dvals, repeat=n):
                mat = {}
                for tup in itertools.product(range(nv), repeat=n + 1):
                    ok = all(dist.get((tup[k], tup[k + 1])) == prof[k]
                             for k in range(n))
                    if ok:
                        mat[(tup, tup)] = 1
                self._add((n, n), mat)
        # full collapse at every pair
        for (n, m) in self.pairs:
            mat = {(((v,) * (n + 1)), ((v,) * (m + 1))): 1
                   for v in range(nv)}
            self._add((n, m), mat)
        # cycle patterns folded to a single column label
        max_cycle = ROW_CAP if self.category == "all" else min(ROW_CAP, 6)
        for k in range(3, max_cycle + 1):
            if (k, 0) not in self.items:
                continue
            blg = circular_gadget(k)
            hm = hom_matrix(blg, g)
            mat = {}
            for (i, j), c in hm.entries.items():
                mat[(i, j)] = mat.get((i, j), 0) + c
            self._add((k, 0), mat)
        # pair functions as diagonal matrices at (1, 1)
        for fn in self.fe.f1_basis():
            mat = {((u, v), (u, v)): c for (u, v), c in fn.items()}
            self._add((1, 1), mat)

    def _total_items(self):
        return sum(len(v) for v in self.items.values())

    def _close(self):
        self.rounds = 0
        self.stable = False
        frontier = {pq: list(self.items[pq]) for pq in self.pairs}
        f1s = self.fe.f1_basis()
        f0s = self.fe.f0_basis()
        for _ in range(MOR_ROUNDS):
            self.rounds += 1
            added = {pq: [] for pq in self.pairs}

            def emit(pq, mat):
                if pq in self.items and self._add(pq, mat):
                    added[pq].append(mat)

            for (n, m) in self.pairs:
                new = frontier[(n, m)]
                if not new:
                    continue
                for a in new:
                    emit((m, n), mat_adjoint(a))
                    emit((m, n), mat_tilde(a))
                    for p in range(n):
                        emit((n + 1, m), dup_row(a, p))
                        for fn in f1s:
                            emit((n, m), scale_row(a, p, fn))
                    for p in range(m):
                        emit((n, m + 1), dup_col(a, p))
                        for fn in f1s:
                            emit((n, m), scale_col(a, p, fn))
                    for fn in f0s:
                        emit((n, m), scale_point(a, 0, fn, "row"))
                        emit((n, m), scale_point(a, n, fn, "row"))
                    for p in range(1, n):
                        emit((n - 1, m), cap_row(a, p, n))
                        emit((n - 1, m), merge_row(a, p - 1))
                    for p in range(1, m):
                        emit((n, m - 1), cap_col(a, p, m))
                        emit((n, m - 1), merge_col(a, p - 1))
                    if n == m:
                        emit((2 * n, 0), s_map(a, n))
                        emit((2 * n, 0), t_map(a, n))
                # composition and glued tensor, new against everything
                for (k2, m2) in self.pairs:
                    if (n, m2) in self.items and k2 == m:
                        for a in new:
                            for b in self.items[(m, m2)]:
                                emit((n, m2), mat_mul(a, b))
                    if (k2, m2) != (n, m) and (k2, n) in self.items:
                        for a in new:
                            for b in self.items[(k2, n)]:
                                emit((k2, m), mat_mul(b, a))
                    nm2 = (n + k2, m + m2)
                    if nm2 in self.items:
                        for a in new:
                            for b in self.items[(k2, m2)]:
                                emit(nm2, rel_tensor(a, b))
                                emit(nm2, rel_tensor(b, a))
            if self._total_items() > MOR_SIZE_BUDGET:
                break
            frontier = added
            if not any(added.values()):
                self.stable = True
                break

    def basis(self, n, m):
        if (n, m) in self.items:
            return list(self.items[(n, m)])
        if (m, n) in self.items:
            return [mat_adjoint(a) for a in self.items[(m, n)]]
        raise ValidationError("arity pair (%d, %d) beyond engine caps"
                              % (n, m))


# ---------------------------------------------------------------------------
# public containers


class MorBasis:
    """A generated spanning set of intertwiners at one arity pair."""

    def __init__(self, arity, matrices, category, scene, stable, depth,
                 engine=None):
        self.arity = arity
        self.matrices = matrices
        self.category = category
        self.scene = scene
        self.stable = stable
        self.depth = depth
        self.engine = engine

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
                 seed=None, residual=0):
        self.matrix = matrix
        self.arity = arity
        self.block = block
        self.d_left = d_left
        self.d_right = d_right
        self.rho = Fraction(d_right, d_left)
        self.exact = exact
        self.seed = seed
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
# engine caches


_function_engines = {}
_mor_engines = {}


def _graph_key(g):
    return (g.vertex_count, tuple(g.undirected_edges()))


def function_engine(target, category="planar", window=None):
    if isinstance(target, FiniteGraph):
        key = (_graph_key(target), category)
        if key not in _function_engines:
            _function_engines[key] = FunctionEngine(Scene.finite(target),
                                                    category=category)
        return _function_engines[key]
    scene = scene_for(target, window)
    return FunctionEngine(scene, category=category)


def mor_engine(graph, category="planar"):
    key = (_graph_key(graph), category)
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
        fe = function_engine(target, category, window)
        if (n, m) == (0, 0):
            mats = [{((v,), (v,)): c for v, c in fn.items()}
                    for fn in fe.f0_basis()]
        else:
            mats = [{((u, v), (u, v)): c for (u, v), c in fn.items()}
                    for fn in fe.f1_basis()]
        return MorBasis((n, m), mats, category, fe.scene, fe.stable,
                        fe.rounds, engine=fe)
    if not isinstance(target, FiniteGraph):
        raise ValidationError(
            "higher-arity spans are only generated over finite graphs; "
            "windows support arities (0,0) and (1,1)")
    eng = mor_engine(target, category)
    mats = eng.basis(n, m)
    return MorBasis((n, m), mats, category, eng.scene, eng.stable,
                    eng.rounds, engine=eng)


def quantum_orbits(target, category="all", window=None):
    """Vertex partition induced by the generated invariant functions."""
    fe = function_engine(target, category, window)
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


def _orbit_constant(trace, orbits, v0, scene=None):
    if orbits is None:
        keys = scene.core if scene is not None else set(trace)
        vals = {trace.get(v, 0) for v in keys}
        return vals.pop() if len(vals) == 1 else None
    orbit = orbits.classes[orbits.orbit_of(v0)]
    vals = {trace.get(v, 0) for v in orbit}
    return vals.pop() if len(vals) == 1 else None


def _spectral_projections(basis, orbits, tol, seed):
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
        coef, res, _rank, _sv = np.linalg.lstsq(flat, proj.ravel(),
                                                rcond=None)
        fit = flat @ coef
        if np.max(np.abs(fit - proj.ravel())) > 1e3 * tol:
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
        tl = partial_trace(mat, "left")
        tr = partial_trace(mat, "right")
        d_l = _float_orbit_constant(tl, orbits, anchor[0][0], tol)
        d_r = _float_orbit_constant(tr, orbits, anchor[0][-1], tol)
        if d_l is None or d_r is None:
            continue
        out.append(MinimalProjection(mat, basis.arity[0],
                                     _block_of(orbits, anchor[0]),
                                     d_l, d_r, False, seed=seed,
                                     residual=float(np.max(np.abs(
                                         fit - proj.ravel())))))
    return out


def _float_orbit_constant(trace, orbits, v0, tol):
    orbit = orbits.classes[orbits.orbit_of(v0)] if orbits else \
        sorted(trace)
    vals = [float(trace.get(v, 0)) for v in orbit]
    mean = sum(vals) / len(vals)
    if max(abs(x - mean) for x in vals) > 1e3 * tol:
        return None
    r = round(mean)
    if abs(mean - r) > 1e3 * tol:
        return None
    return r


def conjugate_solutions(p, graph=None, tol=1e-9):
    """Column solutions of the duality equations attached to a minimal
    projection at a square arity, with the zigzag and trace checks."""
    n = p.arity
    s = s_map(p.matrix, n)
    t = t_map(p.matrix, n)
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


def mu_assignment(target, category="planar", window=None, e=None,
                  tol=0):
    """Vertex weight from edge-atom dimension ratios, normalized at e.

    Each minimal edge atom of the pair-function span has a left and a
    right trace; their ratio is the multiplicative step across any edge
    in the atom.  The steps are propagated from the root and checked for
    consistency around the explored region."""
    fe = function_engine(target, category, window)
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
    from collections import deque
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


def path_projection(target, n, window=None, core_only=True):
    """Indicator of tuples that walk along edges for n steps."""
    scene = scene_for(target, window) if not isinstance(target, Scene) \
        else target
    allowed = scene.core if (core_only and not scene.is_finite) \
        else set(scene.vertices)
    mat = {}

    def walk(tup):
        if len(tup) == n + 1:
            mat[(tup, tup)] = 1
            return
        for w in scene.neighbors(tup[-1]):
            if w in allowed:
                walk(tup + (w,))

    for v in sorted(allowed, key=scene.vertex_sort_key):
        walk((v,))
    return mat


def lambda_projection(target, n, lam, window=None, core_only=True):
    """Indicator of tuples whose consecutive steps stay within distance
    lam (distance measured inside the explored region)."""
    scene = scene_for(target, window) if not isinstance(target, Scene) \
        else target
    allowed = scene.core if (core_only and not scene.is_finite) \
        else set(scene.vertices)
    from collections import deque

    reach = {}
    for v in allowed:
        seen = {v: 0}
        todo = deque([v])
        while todo:
            u = todo.popleft()
            if seen[u] == lam:
                continue
            for w in scene.neighbors(u):
                if w not in seen and w in set(scene.vertices):
                    seen[w] = seen[u] + 1
                    todo.append(w)
        reach[v] = {w for w in seen if w in allowed}
    mat = {}

    def walk(tup):
        if len(tup) == n + 1:
            mat[(tup, tup)] = 1
            return
        for w in sorted(reach[tup[-1]], key=scene.vertex_sort_key):
            walk(tup + (w,))

    for v in sorted(allowed, key=scene.vertex_sort_key):
        walk((v,))
    return mat


def ibf_basis(target, p, n, category="planar", tol=1e-9):
    """Isometries spanning the column space cut out by a minimal
    projection, orthonormalized in the inner product where W* V is a
    scalar multiple of the projection."""
    import numpy as np
    k = p.arity
    eng = mor_engine(target, category)
    anchor = max(p.matrix, key=lambda key: abs(p.matrix[key]))
    pref = p.matrix[anchor]
    cands = []
    for b in eng.basis(n, k):
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


def edge_substitute(pattern, x1, x2, assignment, target, window=None,
                    pairs=None):
    """Evaluate a pointed pattern whose oriented edges carry pair
    functions: sum over all vertex maps of the product of edge values,
    with the two marked vertices pinned.  Returns a pair function."""
    scene = scene_for(target, window) if not isinstance(target, Scene) \
        else target
    supp_out, supp_in = {}, {}
    for edge, fn in assignment.items():
        so, si = {}, {}
        for (u, v), c in fn.items():
            if c:
                so.setdefault(u, {})[v] = c
                si.setdefault(v, {})[u] = c
        supp_out[edge] = so
        supp_in[edge] = si
    if pairs is None:
        pairs = [(u, v) for u in sorted(scene.core,
                                        key=scene.vertex_sort_key)
                 for v in sorted(scene.core, key=scene.vertex_sort_key)] \
            if scene.is_finite else list(
                {(u, v) for u in scene.core for v in scene.core
                 if u == v or v in scene.neighbors(u)})
    edges_at = {}
    for (a, b) in assignment:
        edges_at.setdefault(a, []).append(((a, b), "out"))
        edges_at.setdefault(b, []).append(((a, b), "in"))
    order = []
    placed = {x1, x2}
    frontier = [x1, x2]
    while frontier:
        nxt = []
        for v in frontier:
            for (edge, _d) in edges_at.get(v, ()):
                for w in edge:
                    if w not in placed:
                        placed.add(w)
                        order.append(w)
                        nxt.append(w)
        frontier = nxt
    if len(placed) != pattern.vertex_count:
        raise ValidationError("pattern vertex not connected to the pins")

    out = {}
    for (i, j) in pairs:
        phi = {x1: i, x2: j}

        def weight_if_complete(v, cand):
            acc = 1
            for (edge, _d) in edges_at.get(v, ()):
                a, b = edge
                other = b if a == v else a
                if other not in phi and other != v:
                    continue
                iu = cand if a == v else phi[a]
                iv = cand if b == v else phi[b]
                w = assignment[edge].get((iu, iv), 0)
                if not w:
                    return 0
                acc *= w
            return acc

        def extend(idx, acc):
            nonlocal total
            if idx == len(order):
                total += acc
                return
            v = order[idx]
            cands = None
            for (edge, _d) in edges_at.get(v, ()):
                a, b = edge
                other = b if a == v else a
                if other not in phi:
                    continue
                if a == v:
                    here = set(supp_in[edge].get(phi[b], {}))
                else:
                    here = set(supp_out[edge].get(phi[a], {}))
                cands = here if cands is None else cands & here
            if cands is None:
                raise ValidationError(
                    "pattern vertex without placed neighbor")
            for cand in cands:
                w = weight_if_complete(v, cand)
                if w:
                    phi[v] = cand
                    extend(idx + 1, acc * w)
                    del phi[v]

        # fixed edges among already-placed vertices
        base = 1
        for (a, b), fn in assignment.items():
            if a in phi and b in phi:
                base *= fn.get((phi[a], phi[b]), 0)
        total = 0
        if base:
            if order:
                extend(0, base)
            else:
                total = base
        if total:
            out[(i, j)] = total
    return out


# ---------------------------------------------------------------------------
# column spaces at higher arity: dense ladder over closed tuples

# An element of the intertwiner space at arity pair (M, 0) in path form
# is supported on closed tuples (i0..iM) with iM == i0, recorded with
# column label (i0,).  We store such elements as dense integer arrays
# over the free coordinates (i0..i_{M-1}) and generate the span by a
# ladder of tuple operations: duplicating a coordinate, scaling an edge
# of the loop by a generated pair function, scaling a coordinate by a
# generated vertex function, summing out or merging coordinates, and
# reversing the loop.  Independence is decided by row reduction modulo a
# large prime; the stored values stay exact integers.

_SPAN_PRIME = 67108859


class SpanModP:
    """Incremental row space modulo a prime, for rank decisions.

    Inputs are integer arrays of `dim` entries in any shape; zero
    entries are ignored.  Every input is remembered by the bytes of its
    nonzero positions and values, and a repeat is rejected without
    eliminating.  This is exact: after the first offer the vector lies
    in the span, and a span only grows, so the repeat would reduce to
    zero anyway."""

    def __init__(self, dim):
        import numpy as np
        self.np = np
        self.dim = dim
        self.rows = []
        self.pivots = []
        self.seen = set()

    def add(self, vec):
        np = self.np
        p = _SPAN_PRIME
        v = np.asarray(vec, dtype=np.int64).ravel()
        nz = np.flatnonzero(v)
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
                v = (v - f * row) % p
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


LADDER_ROUNDS = 8


class ColumnLadder:
    """Exact generated bases of the column spaces at arities (M, 0)."""

    def __init__(self, graph, category="planar", max_level=6):
        import numpy as np
        self.np = np
        self.graph = graph
        self.category = category
        self.q = graph.vertex_count
        self.max_level = max_level
        fe = function_engine(graph, category)
        self.f1_mats = []
        for fn in fe.f1_basis():
            w = np.zeros((self.q, self.q), dtype=np.int64)
            for (u, v), c in fn.items():
                w[u, v] = c
            self.f1_mats.append(w)
        self.f0_vecs = []
        for fn in fe.f0_basis():
            w = np.zeros(self.q, dtype=np.int64)
            for u, c in fn.items():
                w[u] = c
            self.f0_vecs.append(w)
        self.levels = {M: [] for M in range(max_level + 1)}
        self.spans = {M: SpanModP(self.q ** max(M, 1))
                      for M in range(max_level + 1)}
        self._seed()
        self._close()
        # the spans' seen-sets are only needed while closing
        del self.spans

    # level M arrays have shape (q,) * max(M, 1); index t is loop
    # coordinate i_t, and the loop closes with i_M == i_0.

    def _shape(self, M):
        return (self.q,) * max(M, 1)

    def _add(self, M, arr):
        if not arr.any():
            return False
        if self.spans[M].add(arr):
            self.levels[M].append(arr)
            return True
        return False

    def _seed(self):
        np = self.np
        for fn in self.f0_vecs:
            self._add(0, fn.copy())
            self._add(1, fn.copy())
        eng = mor_engine(self.graph, self.category)
        for M in range(2, min(4, self.max_level) + 1):
            if (M, 0) not in eng.items:
                continue
            for mat in eng.items[(M, 0)]:
                arr = np.zeros(self._shape(M), dtype=np.int64)
                for (i, _j), c in mat.items():
                    arr[i[:-1]] = c
                self._add(M, arr)

    def _dup(self, arr, M, p):
        np = self.np
        out = np.zeros(self._shape(M + 1), dtype=np.int64)
        for v in range(self.q):
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

    def _scale_edge(self, arr, M, t, w):
        np = self.np
        a, b = t, (t + 1) % M
        out = np.zeros_like(arr)
        if a == b:  # loop of length one: the edge is (i0, i0)
            for v in range(self.q):
                out[v] = arr[v] * w[v, v]
            return out
        for u in range(self.q):
            for v in range(self.q):
                if w[u, v] == 0:
                    continue
                idx = [slice(None)] * M
                idx[a] = u
                idx[b] = v
                out[tuple(idx)] = arr[tuple(idx)] * w[u, v]
        return out

    def _scale_vertex(self, arr, M, t, f):
        shape = [1] * max(M, 1)
        shape[t] = self.q
        return arr * f.reshape(shape)

    def _cap(self, arr, M, p):
        return arr.sum(axis=p)

    def _merge(self, arr, M, p):
        np = self.np
        if p == M - 1:  # wrap: identify i_{M-1} with the closing i0
            d = np.diagonal(arr, axis1=M - 1, axis2=0)
            return np.moveaxis(d, -1, 0)
        d = np.diagonal(arr, axis1=p, axis2=p + 1)
        return np.moveaxis(d, -1, p)

    def _reverse(self, arr, M):
        if M <= 1:
            return arr
        axes = [0] + list(range(M - 1, 0, -1))
        return self.np.transpose(arr, axes)

    def _rotate(self, arr, M):
        """Re-base the loop at its second coordinate."""
        if M <= 1:
            return arr
        return self.np.transpose(arr, list(range(1, M)) + [0])

    def _wedge(self, x, kx, y, ky):
        """Glue two loops at a shared basepoint, traversing x then y."""
        np = self.np
        out = np.zeros(self._shape(kx + ky), dtype=np.int64)
        for v in range(self.q):
            dst = [slice(None)] * (kx + ky)
            dst[0] = v
            dst[kx] = v
            out[tuple(dst)] = np.multiply.outer(x[v], y[v])
        return out

    def _close(self):
        self.rounds = 0
        self.stable = False
        frontier = {M: list(self.levels[M]) for M in self.levels}
        for _ in range(LADDER_ROUNDS):
            self.rounds += 1
            added = {M: [] for M in self.levels}

            def emit(M, arr):
                if 0 <= M <= self.max_level and self._add(M, arr):
                    added[M].append(self.levels[M][-1])

            for M in range(self.max_level + 1):
                for arr in frontier[M]:
                    if M >= 2:
                        emit(M, self._rotate(arr, M))
                        for ky in range(1, self.max_level - M + 1):
                            for other in self.levels[ky]:
                                emit(M + ky, self._wedge(arr, M, other, ky))
                                emit(M + ky, self._wedge(other, ky, arr, M))
                    if M >= 1:
                        emit(M, self._reverse(arr, M))
                        for t in range(M):
                            for w in self.f1_mats:
                                emit(M, self._scale_edge(arr, M, t, w))
                        for t in range(max(M, 1)):
                            for f in self.f0_vecs:
                                emit(M, self._scale_vertex(arr, M, t, f))
                    if M >= 1 and M < self.max_level:
                        for p in range(M + 1):
                            emit(M + 1, self._dup(arr, M, p))
                    if M >= 2:
                        for p in range(1, M):
                            emit(M - 1, self._cap(arr, M, p))
                        for p in range(M - 1, M):
                            emit(M - 1, self._merge(arr, M, p))
                        for p in range(1, M - 1):
                            emit(M - 1, self._merge(arr, M, p))
            frontier = added
            if not any(added.values()):
                self.stable = True
                break

    def basis(self, M):
        return self.levels[M]

    def stacked(self, M):
        """Basis as a matrix with one flattened element per row."""
        np = self.np
        return np.stack([a.ravel() for a in self.levels[M]])
