"""Quantization layer for discrete groups on their Cayley graphs.

A group with a finite generating set determines relation vectors: the
0/1 indicator of the tuples of generators that multiply to the
identity.  This module enumerates those supports (plain, signed and
triangle variants), evaluates bi-labeled graphs with path labels as
integer matrices indexed by generator tuples via windowed homomorphism
counts on the Cayley graph pinned at the identity, and probes the exact
rational rank of the span of those matrices against partition-count
oracles.
"""

import csv
import io
import itertools

from .bilabeled import BiLabeled, classify, compose, relative_tensor
from .graphs import BudgetExceeded, FiniteGraph, ValidationError, cayley_graph
from .hommat import TupleWindow, hom_matrix_windowed
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


def _enumerate_support(spec, letters):
    support = []
    for t in itertools.product(*letters):
        if spec.word(t) == spec.identity:
            support.append(t)
    return support


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


def fiber_matrix(k, spec, vertex_budget=None):
    """Exact matrix of a path-labeled bi-labeled graph for a group.

    The graph must be connected with label walks sharing both end
    vertices; entries are windowed homomorphism counts on the Cayley
    graph with the common start vertex pinned at the identity."""
    if not classify(k)["in_L"]:
        raise ValidationError("labels must share their end vertices on a "
                              "connected graph")
    if not is_path_labeled(k):
        raise ValidationError("labels must be paths in the graph")
    provider = (cayley_graph(spec) if vertex_budget is None
                else cayley_graph(spec, vertex_budget=vertex_budget))
    n, m = k.n - 1, k.m - 1
    rows, row_names = _letter_windows(spec, provider, n)
    cols, col_names = _letter_windows(spec, provider, m)
    hm = hom_matrix_windowed(k, provider, rows, cols)
    entries = {}
    for (i, j), v in hm.entries.items():
        s = row_names[rows.index[i]]
        t = col_names[cols.index[j]]
        if spec.word([dict(spec.generators)[name] for name in s]) != \
                spec.word([dict(spec.generators)[name] for name in t]):
            raise ValidationError("nonzero entry off the equal-product "
                                  "support")
        entries[(s, t)] = v
    return FiberMatrix(k, n, m, row_names, col_names, entries)


def fiber_multiply(f1, f2):
    """Integer product of two fiber matrices over the shared middle index."""
    if f1.m != f2.n:
        raise ValidationError("inner arities do not match")
    by_row = {}
    for (s, t), v in f2.entries.items():
        by_row.setdefault(s, []).append((t, v))
    out = {}
    for (s, t), v in f1.entries.items():
        for (r, w) in by_row.get(t, []):
            key = (s, r)
            out[key] = out.get(key, 0) + v * w
    return FiberMatrix(None, f1.n, f2.m, f1.row_names, f2.col_names,
                       {k: v for k, v in out.items() if v})


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


def _sort_key(k):
    return (k.graph.vertex_count, k.n, k.m, k.x, k.y,
            tuple(sorted(k.graph.undirected_edges())))


def _layers(size, vertex_cap, layer_cap):
    """Relative tensor products of split cycles, deduplicated as labeled
    graphs and truncated by the vertex and member budgets."""
    atoms = [split_cycle(a, c - a)
             for c in range(2, size + 1) for a in range(c + 1)]
    cap = size + 1

    def ok(k):
        return (k.graph.vertex_count <= vertex_cap
                and k.n <= cap and k.m <= cap)

    layers = set(a for a in atoms if ok(a))
    frontier = list(layers)
    while frontier and len(layers) < layer_cap:
        nxt = []
        for b in frontier:
            for a in atoms:
                cand = relative_tensor(b, a)
                if ok(cand) and cand not in layers:
                    layers.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(layers, key=_sort_key)


# fiber_span_rank's budgets: layers have at most FIBER_LAYER_VERTICES
# vertices and number at most FIBER_LAYER_CAP; at most FIBER_PAIR_BUDGET
# compositions are tried, over at most FIBER_LETTER_BUDGET letter tuples.
FIBER_LAYER_VERTICES = 12
FIBER_LAYER_CAP = 3000
FIBER_PAIR_BUDGET = 30000
FIBER_LETTER_BUDGET = 4096


def fiber_span_rank(spec, n, m):
    """Exact rational rank of the span of generated fiber matrices.

    Candidates are the generated path-labeled graphs of arity (n, m):
    single layers plus compositions of two layers with matching middle
    arity, in a deterministic order up to FIBER_PAIR_BUDGET pairs."""
    gens = spec.generator_elements()
    if len(gens) ** max(n, m) > FIBER_LETTER_BUDGET:
        raise BudgetExceeded("letter tuples exceed the budget")
    provider = cayley_graph(spec)
    rows, row_names = _letter_windows(spec, provider, n)
    cols, col_names = _letter_windows(spec, provider, m)
    layers = _layers(n + m, FIBER_LAYER_VERTICES, FIBER_LAYER_CAP)
    span = RatSpan()
    examined = 0

    def feed(k):
        nonlocal examined
        examined += 1
        hm = hom_matrix_windowed(k, provider, rows, cols)
        vec = {(row_names[rows.index[i]], col_names[cols.index[j]]): v
               for (i, j), v in hm.entries.items()}
        if vec:
            span.add(vec)

    direct = [k for k in layers if k.n == n + 1 and k.m == m + 1]
    for k in direct:
        feed(k)
    left = [k for k in layers if k.n == n + 1]
    by_mid = {}
    for k in layers:
        if k.m == m + 1:
            by_mid.setdefault(k.n, []).append(k)
    seen = set(direct)
    pairs = 0
    exhausted = True
    for l1 in left:
        for l2 in by_mid.get(l1.m, []):
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
