"""Quantization layer for discrete groups on their Cayley graphs.

A group with a finite generating set determines relation vectors: the
0/1 indicator of the tuples of generators that multiply to the
identity.  This module enumerates those supports (plain, signed and
triangle variants), evaluates bi-labeled graphs with path labels as
integer matrices indexed by generator tuples via windowed homomorphism
counts on the Cayley graph pinned at the identity, and probes the exact
rational rank of the span of those matrices against partition-count
oracles.

The matrices form a monoidal functor: a composite maps to the matrix
product and a relative tensor product to the concatenation tensor of
its factors' matrices.  The span-rank probe therefore counts
homomorphisms only for the split-cycle atoms and gets every other
matrix from theirs by exact integer algebra; it tells layers and
composites apart by integer-coded keys, building no graph for them.
"""

import csv
import io
import itertools

from .bilabeled import BiLabeled, _glue_map, classify
from .graphs import BudgetExceeded, FiniteGraph, ValidationError, cayley_graph
from .hommat import TupleWindow, hom_matrix_windowed
from .morspace import mat_mul
from .ratmat import RatSpan


# ---------------------------------------------------------------------------
# Relation supports

class RelationSupport:
    """Tuples of letters multiplying to the identity.

    `letters` lists the alphabet used at each of the n positions and
    `support` is the set of n-tuples over those alphabets whose product
    is the identity.  `epsilon` records the sign pattern for the signed
    variant (None for a symmetric generating set)."""

    def __init__(self, n, letters, support, epsilon=None):
        self.n = int(n)
        self.letters = tuple(tuple(a) for a in letters)
        self.support = frozenset(tuple(t) for t in support)
        self.epsilon = None if epsilon is None else tuple(epsilon)
        if len(self.letters) != self.n:
            raise ValidationError("need one alphabet per position")

    def __len__(self):
        return len(self.support)

    def __contains__(self, t):
        return tuple(t) in self.support

    def __repr__(self):
        eps = "" if self.epsilon is None else ", epsilon=%r" % (self.epsilon,)
        return "RelationSupport(n=%d, size=%d%s)" % (
            self.n, len(self.support), eps)


def _products(spec, letters):
    """(word, product) for every word over the letter sets, in the
    lexicographic order of itertools.product, each product extending
    its prefix's by one multiplication."""
    words = [((), spec.identity)]
    for choices in letters:
        words = [(w + (s,), spec.multiply(p, s)) for w, p in words
                 for s in choices]
    return words


def _enumerate_support(spec, letters):
    """The words over the letter sets whose product is the identity, in
    the lexicographic order of itertools.product.

    Meet in the middle: the word splits after h = n // 2 letters, and a
    prefix p pairs with the suffixes whose product is the inverse of
    p's.  This needs the group law to be associative, which
    `finite_table_group` checks for tables."""
    h = len(letters) // 2
    suffixes = {}
    for w, p in _products(spec, letters[h:]):
        suffixes.setdefault(p, []).append(w)
    return [w + v for w, p in _products(spec, letters[:h])
            for v in suffixes.get(spec.inverse(p), ())]


def relation_vectors(spec, n_max):
    """Relation supports over a symmetric generating set for n=1..n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if not spec.generating_set_symmetric():
        raise ValidationError("generating set is not symmetric")
    gens = spec.generator_elements()
    out = []
    for n in range(1, n_max + 1):
        letters = [gens] * n
        support = _enumerate_support(spec, letters)
        for t in support:
            if spec.word(t) != spec.identity:
                raise ValidationError("word oracle is inconsistent")
        out.append(RelationSupport(n, letters, support))
    return out


def signed_relation_vectors(spec, n_max, gens=None):
    """Relation supports for every sign pattern over a generating set.

    The generating set F (default: the declared generators) need not be
    symmetric; position k of the pattern uses F when the sign is +1 and
    the set of inverses when it is -1."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    f = list(gens) if gens is not None else spec.generator_elements()
    f_inv = [spec.inverse(s) for s in f]
    out = []
    for n in range(1, n_max + 1):
        for eps in itertools.product((1, -1), repeat=n):
            letters = [f if e == 1 else f_inv for e in eps]
            support = _enumerate_support(spec, letters)
            out.append(RelationSupport(n, letters, support, epsilon=eps))
    return out


def cyclic_rotation_report(supports):
    """Whether each plain relation support is closed under rotation.

    This holds for the inverse-reversal map by the group axioms; for
    rotations it is reported rather than asserted."""
    report = {}
    for rs in supports:
        closed = all(t[1:] + t[:1] in rs.support for t in rs.support)
        report[rs.n] = closed
    return report


def triangle_xi(t_set):
    """0/1 vector data for a set of relator triples.

    Returns the sorted support, its size and the per-coordinate letter
    marginals.  No presentation axioms are validated."""
    support = sorted(set(tuple(t) for t in t_set))
    for t in support:
        if len(t) != 3:
            raise ValidationError("triangle relators must be triples")
    marginals = [{}, {}, {}]
    for t in support:
        for pos in range(3):
            marginals[pos][t[pos]] = marginals[pos].get(t[pos], 0) + 1
    return {"support": support, "size": len(support),
            "marginals": marginals}


# ---------------------------------------------------------------------------
# Fiber matrices on the Cayley graph

def is_path_labeled(k):
    """Both label tuples walk along edges of the underlying graph."""
    for tup in (k.x, k.y):
        for a, b in zip(tup, tup[1:]):
            if b not in k.graph.neighbors(a):
                return False
    return True


class FiberMatrix:
    """Integer matrix of a path-labeled bi-labeled graph over S^n x S^m.

    Rows and columns are indexed by generator tuples; the entry counts
    homomorphisms into the Cayley graph sending the input path to the
    prefix walk of the row tuple starting at the identity."""

    def __init__(self, blg, n, m, row_names, col_names, entries):
        self.blg = blg
        self.n = int(n)
        self.m = int(m)
        self.row_names = list(row_names)
        self.col_names = list(col_names)
        self.entries = dict(entries)

    def __getitem__(self, st):
        return self.entries.get((tuple(st[0]), tuple(st[1])), 0)

    def __repr__(self):
        return "FiberMatrix(n=%d, m=%d, nonzero=%d)" % (
            self.n, self.m, len(self.entries))


def _letter_windows(spec, provider, arity):
    """Window of prefix-walk tuples (e, s1, s1 s2, ...) over S^arity."""
    gens = spec.generator_elements()
    names = dict((spec.key(el), name) for (name, el) in spec.generators)
    ekey = spec.key(spec.identity)
    provider.neighbors(ekey)    # make sure the identity is materialized
    tuples, labels = [], []
    for s in itertools.product(gens, repeat=arity):
        acc = spec.identity
        walk = [ekey]
        for g in s:
            acc = spec.multiply(acc, g)
            walk.append(spec.key(acc))
        tuples.append(tuple(walk))
        labels.append(tuple(names[spec.key(g)] for g in s))
    return TupleWindow(arity + 1, tuples), labels


def fiber_matrix(k, spec):
    """Exact matrix of a path-labeled bi-labeled graph for a group.

    The graph must be connected with label walks sharing both end
    vertices; entries are windowed homomorphism counts on the Cayley
    graph with the common start vertex pinned at the identity."""
    if not classify(k)["in_L"]:
        raise ValidationError("labels must share their end vertices on a "
                              "connected graph")
    if not is_path_labeled(k):
        raise ValidationError("labels must be paths in the graph")
    provider = cayley_graph(spec)
    n, m = k.n - 1, k.m - 1
    rows, row_names = _letter_windows(spec, provider, n)
    cols, col_names = _letter_windows(spec, provider, m)
    hm = hom_matrix_windowed(k, provider, rows, cols)
    element = dict(spec.generators)
    entries = {}
    for (i, j), v in hm.entries.items():
        s = row_names[rows.index[i]]
        t = col_names[cols.index[j]]
        if spec.word([element[name] for name in s]) != \
                spec.word([element[name] for name in t]):
            raise ValidationError("nonzero entry off the equal-product "
                                  "support")
        entries[(s, t)] = v
    return FiberMatrix(k, n, m, row_names, col_names, entries)


def fiber_multiply(f1, f2):
    """Integer product of two fiber matrices over the shared middle index."""
    if f1.m != f2.n:
        raise ValidationError("inner arities do not match")
    return FiberMatrix(None, f1.n, f2.m, f1.row_names, f2.col_names,
                       mat_mul(f1.entries, f2.entries))


def letter_tensor(a, b):
    """Concatenation tensor of sparse matrices keyed by letter tuples:
    a[s, t] * b[s', t'] at (s + s', t + t').

    On fiber matrices this is the matrix of relative_tensor(k1, k2): a
    nonzero entry of k1's matrix at (s, t) has prod(s) = prod(t), and
    left multiplication by that element is an automorphism of the Cayley
    graph, so k2 pinned there counts as k2 pinned at the identity."""
    return {(s + s2, t + t2): v * w
            for (s, t), v in a.items() for (s2, t2), w in b.items()}


def fiber_matrix_json(fm):
    return {"n": fm.n, "m": fm.m,
            "entries": [[list(s), list(t), v]
                        for (s, t), v in sorted(fm.entries.items())]}


def fiber_matrix_csv(fm):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "value"])
    for (s, t), v in sorted(fm.entries.items()):
        writer.writerow([" ".join(s), " ".join(t), v])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Generation of path-labeled bi-labeled graphs

def split_cycle(a, b):
    """Cycle walked a steps forward by x and b steps backward by y.

    Both walks start at vertex 0 and end at the same vertex, so the
    result has path labels with shared end points; its matrix entries
    indicate closed relation tuples split across the two sides."""
    c = a + b
    if c < 2:
        raise ValidationError("cycle length must be >= 2")
    if c == 2:
        g = FiniteGraph(2, [(0, 1)])
    else:
        g = FiniteGraph(c, [(i, (i + 1) % c) for i in range(c)])
    cc = g.vertex_count
    x = tuple(k % cc for k in range(a + 1))
    y = tuple((-k) % cc for k in range(b + 1))
    return BiLabeled(g, x, y)


# Layers and composites are handled as integer-coded keys (vertex count,
# sorted edge codes, x, y), the edge {u, w} with u <= w coded u * nv + w:
# two keys are equal exactly when their bi-labeled graphs are, and the
# codes sort as the edge pairs do.

def _blg_key(k):
    nv = k.graph.vertex_count
    return (nv, tuple(u * nv + w for (u, w) in k.graph.undirected_edges()),
            k.x, k.y)


def _key_blg(key):
    nv, codes, x, y = key
    return BiLabeled(FiniteGraph(nv, [divmod(c, nv) for c in codes]), x, y)


def _glue_keys(k1, k2, pairs, x, y):
    """Key of k1 beside k2 (k2's vertices numbered after k1's) glued
    along pairs; x and y are labels in the numbering before the glue."""
    n1 = k1[0]
    glued, count = _glue_map(n1 + k2[0], pairs)
    edges = set()
    for (nv, part, codes) in ((n1, glued[:n1], k1[1]),
                              (k2[0], glued[n1:], k2[1])):
        for u, w in map(divmod, codes, itertools.repeat(nv)):
            u, w = part[u], part[w]
            edges.add(u * count + w if u <= w else w * count + u)
    return (count, tuple(sorted(edges)), tuple(glued[v] for v in x),
            tuple(glued[v] for v in y))


def _tensor_key(b, a):
    """Key of relative_tensor(b, a): b's last x-label glued to a's first."""
    off = b[0]
    return _glue_keys(b, a, [(b[2][-1], a[2][0] + off)],
                      b[2] + tuple(v + off for v in a[2][1:]),
                      b[3] + tuple(v + off for v in a[3][1:]))


def _compose_key(k1, k2):
    """Key of compose(k1, k2): k1's y-labels glued to k2's x-labels."""
    off = k1[0]
    return _glue_keys(k1, k2, [(u, v + off) for u, v in zip(k1[3], k2[2])],
                      k1[2], tuple(v + off for v in k2[3]))


def _layer_order(key):
    nv, codes, x, y = key
    return (nv, len(x), len(y), x, y, codes)


def _layer_keys(size, vertex_cap, layer_cap):
    """Keys of the relative tensor products of split cycles, deduplicated
    and truncated by the vertex and member budgets, by breadth-first
    search from the atoms.

    A relative tensor glues exactly one vertex, so its vertex and label
    counts are known, and checked against the budgets, before its key is
    glued.  Returns the keys sorted by (vertex count, n, m, x, y, edges)
    and a dict giving each key the pair (b, a) of keys whose relative
    tensor it is, or None for an atom."""
    atoms = [_blg_key(split_cycle(a, c - a))
             for c in range(2, size + 1) for a in range(c + 1)]
    cap = size + 1

    def ok(vertices, n, m):
        return vertices <= vertex_cap and n <= cap and m <= cap

    factors = dict.fromkeys(a for a in atoms
                            if ok(a[0], len(a[2]), len(a[3])))
    frontier = list(factors)
    while frontier and len(factors) < layer_cap:
        nxt = []
        for b in frontier:
            for a in atoms:
                if not ok(b[0] + a[0] - 1, len(b[2]) + len(a[2]) - 1,
                          len(b[3]) + len(a[3]) - 1):
                    continue
                cand = _tensor_key(b, a)
                if cand not in factors:
                    factors[cand] = (b, a)
                    nxt.append(cand)
        frontier = nxt
    return sorted(factors, key=_layer_order), factors


def _layers(size, vertex_cap, layer_cap):
    """The layers of _layer_keys as bi-labeled graphs, in its order."""
    return [_key_blg(k) for k in _layer_keys(size, vertex_cap, layer_cap)[0]]


# fiber_span_rank's budgets: layers have at most FIBER_LAYER_VERTICES
# vertices and number at most FIBER_LAYER_CAP; at most FIBER_PAIR_BUDGET
# compositions are tried, over at most FIBER_LETTER_BUDGET letter tuples.
FIBER_LAYER_VERTICES = 12
FIBER_LAYER_CAP = 3000
FIBER_PAIR_BUDGET = 30000
FIBER_LETTER_BUDGET = 4096


class _LayerMatrices:
    """Fiber matrices of layer keys, each computed once from its factors'
    (a method, not a recursive closure, so that no reference cycle keeps
    them alive after the call); equal matrices share one index."""

    def __init__(self, spec, factors):
        self.spec = spec
        self.factors = factors
        self.tables = []      # the distinct matrices
        self.distinct = {}    # frozenset of a matrix's items -> its index
        self.index = {}       # layer key -> index of its matrix

    def of(self, k):
        if k not in self.index:
            parts = self.factors[k]
            mat = (fiber_matrix(_key_blg(k), self.spec).entries
                   if parts is None
                   else letter_tensor(self.tables[self.of(parts[0])],
                                      self.tables[self.of(parts[1])]))
            self.index[k] = self.distinct.setdefault(frozenset(mat.items()),
                                                     len(self.tables))
            if self.index[k] == len(self.tables):
                self.tables.append(mat)
        return self.index[k]


def fiber_span_rank(spec, n, m):
    """Exact rational rank of the span of generated fiber matrices.

    Candidates are the generated path-labeled graphs of arity (n, m):
    single layers plus compositions of two layers with matching middle
    arity, in a deterministic order up to FIBER_PAIR_BUDGET pairs.  Both
    are handled as integer-coded keys, composites told apart by the key
    glued from their layers' keys; a bi-labeled graph is built only for
    the split-cycle atoms, the one place homomorphisms are counted.  By
    the fiber functor a layer's matrix is the letter_tensor of its
    factors' and a composite's the product of its two layers'; equal
    layer matrices share one index, and each pair of indices is
    multiplied once, since RatSpan.add skips a vector it has seen."""
    if n < 0 or m < 0 or n + m == 0:
        raise ValidationError("arities must be >= 0, not both 0")
    gens = spec.generator_elements()
    if len(gens) ** max(n, m) > FIBER_LETTER_BUDGET:
        raise BudgetExceeded("letter tuples exceed the budget")
    layers, factors = _layer_keys(n + m, FIBER_LAYER_VERTICES,
                                  FIBER_LAYER_CAP)
    matrices = _LayerMatrices(spec, factors)
    tables = matrices.tables
    span = RatSpan()

    def feed(vec):
        if vec:
            span.add(vec)

    direct = [k for k in layers if len(k[2]) == n + 1 and len(k[3]) == m + 1]
    for k in direct:
        feed(tables[matrices.of(k)])
    examined = len(direct)
    left = [k for k in layers if len(k[2]) == n + 1]
    by_mid = {}
    for k in layers:
        if len(k[3]) == m + 1:
            by_mid.setdefault(len(k[2]), []).append(k)
    seen = set(direct)
    multiplied = set()
    pairs = 0
    exhausted = True
    for l1 in left:
        for l2 in by_mid.get(len(l1[3]), []):
            pairs += 1
            if pairs > FIBER_PAIR_BUDGET:
                exhausted = False
                break
            cand = _compose_key(l1, l2)
            if cand not in seen:
                seen.add(cand)
                examined += 1
                ij = (matrices.of(l1), matrices.of(l2))
                if ij not in multiplied:
                    multiplied.add(ij)
                    feed(mat_mul(tables[ij[0]], tables[ij[1]]))
        if not exhausted:
            break
    return {"n": n, "m": m, "rank": span.rank, "layers": len(layers),
            "members_examined": examined, "exhausted": exhausted,
            "arithmetic": "exact-rational"}


# ---------------------------------------------------------------------------
# Partition-count oracle

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _noncrossing(part):
    for b1 in part:
        for b2 in part:
            if b1 is b2:
                continue
            for a in b1:
                for b in b1:
                    if (a < b and any(a < c < b for c in b2)
                            and any(c < a or c > b for c in b2)):
                        return False
    return True


def noncrossing_even_count(k):
    """Noncrossing partitions of k ordered points with all blocks even."""
    if k % 2 != 0 or k < 0:
        raise ValidationError("point count must be even and >= 0")
    if k > 12:
        raise BudgetExceeded("partition enumeration is limited to 12 points")
    if k == 0:
        return 1
    return sum(1 for p in _set_partitions(list(range(k)))
               if all(len(b) % 2 == 0 for b in p) and _noncrossing(p))
