"""Bi-labeled graph calculus.

A bi-labeled graph is a finite graph K together with an input tuple x
and an output tuple y of (possibly repeated) vertices.  This module
implements the operations of the calculus — composition (gluing outputs
to inputs), tensor product, transpose, the tilde reversal and the
relative tensor product — plus the named generator gadgets, class
membership flags, canonical forms and planar-family generation by
closure.
"""

from itertools import permutations

from .graphs import FiniteGraph, ValidationError


class BiLabeled:
    """Finite graph K with input labels x and output labels y."""

    def __init__(self, graph, x, y):
        self.graph = graph
        self.x = tuple(int(v) for v in x)
        self.y = tuple(int(v) for v in y)
        for v in self.x + self.y:
            if not (0 <= v < graph.vertex_count):
                raise ValidationError("label %d is not a vertex" % v)

    @property
    def n(self):
        return len(self.x)

    @property
    def m(self):
        return len(self.y)

    def __repr__(self):
        return "BiLabeled(%r, x=%r, y=%r)" % (self.graph, self.x, self.y)

    def __eq__(self, other):
        return (isinstance(other, BiLabeled) and self.graph == other.graph
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash((self.graph, self.x, self.y))


def _components(g):
    comp = [None] * g.vertex_count
    cid = 0
    for v in range(g.vertex_count):
        if comp[v] is None:
            stack = [v]
            comp[v] = cid
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if comp[w] is None:
                        comp[w] = cid
                        stack.append(w)
            cid += 1
    return comp, cid


def classify(k):
    """Membership flags for the nested classes of bi-labeled graphs.

    in_Gc: nonempty label tuples on both sides and K connected.
    in_G1: both tuples nonempty and every component meets x and meets y.
    in_G2: at least one label and every component meets x or y.
    in_L:  connected, x and y of length >= 1 with x0=y0 and x_last=y_last
           (the class whose members span the Mor spaces, with the
           tuple-length shift: tuples of length n+1 give arity n).
    """
    comp, ncomp = _components(k.graph)
    xc = {comp[v] for v in k.x}
    yc = {comp[v] for v in k.y}
    in_g2 = (k.n + k.m >= 1) and len(xc | yc) == ncomp
    in_g1 = k.n >= 1 and k.m >= 1 and len(xc) == ncomp and len(yc) == ncomp
    connected = ncomp <= 1 and k.graph.vertex_count >= 1
    in_gc = k.n >= 1 and k.m >= 1 and connected
    in_l = (connected and k.n >= 1 and k.m >= 1
            and k.x[0] == k.y[0] and k.x[-1] == k.y[-1])
    return {"in_Gc": in_gc, "in_G1": in_g1, "in_G2": in_g2, "in_L": in_l}


# ---------------------------------------------------------------------------
# Operations

def _glue_map(nv, ident_pairs):
    """Glue range(nv) along ident_pairs: (list giving each vertex its
    glued vertex, number of glued vertices), numbered in order of each
    class's least member.  The union-find touches only the vertices
    named in ident_pairs; every other vertex is its own class."""
    parent = {}     # a vertex -> a smaller vertex of its class
    for (a, b) in ident_pairs:
        while a in parent:
            a = parent[a]
        while b in parent:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
    # the roots are the vertices outside parent, numbered in order; each
    # other vertex takes the number of its parent, numbered before it
    drop = sorted(parent)
    glued = []
    for k, d in enumerate(drop):
        glued.extend(range(len(glued) - k, d - k))
        glued.append(glued[parent[d]])
    glued.extend(range(len(glued) - len(drop), nv - len(drop)))
    return glued, nv - len(drop)


def _quotient(nv, edges, ident_pairs, label_tuples):
    """Glue vertices along ident_pairs; relabel to a compact range."""
    glued, count = _glue_map(nv, ident_pairs)
    g = FiniteGraph(count, [(glued[u], glued[w]) for (u, w) in edges])
    new_labels = [tuple(glued[v] for v in t) for t in label_tuples]
    return g, new_labels


def compose(k1, k2):
    """Glue output tuple of k1 to input tuple of k2."""
    if k1.m != k2.n:
        raise ValidationError(
            "arity mismatch: cannot compose (%d,%d) with (%d,%d)"
            % (k1.n, k1.m, k2.n, k2.m))
    count, edges, x, y = compose_key(k1, k2)
    return BiLabeled(FiniteGraph(count, edges), x, y)


def compose_key(k1, k2):
    """The composite of k1 and k2 as (vertex_count, graph.edges, x, y),
    by gluing alone without building the graph: two pairs get equal keys
    exactly when their composites are equal.  Arities must match."""
    off = k1.graph.vertex_count
    glued, count = _glue_map(off + k2.graph.vertex_count,
                             [(k1.y[i], k2.x[i] + off) for i in range(k1.m)])
    tail = glued[off:]
    edges = frozenset([(glued[u], glued[w]) for (u, w) in k1.graph.edges]
                      + [(tail[u], tail[w]) for (u, w) in k2.graph.edges])
    return (count, edges, tuple(glued[v] for v in k1.x),
            tuple(tail[v] for v in k2.y))


def tensor(k1, k2):
    off = k1.graph.vertex_count
    edges = list(k1.graph.undirected_edges())
    edges += [(u + off, w + off) for (u, w) in k2.graph.undirected_edges()]
    g = FiniteGraph(off + k2.graph.vertex_count, edges)
    return BiLabeled(g, k1.x + tuple(v + off for v in k2.x),
                     k1.y + tuple(v + off for v in k2.y))


def transpose(k):
    return BiLabeled(k.graph, k.y, k.x)


def tilde(k):
    """Reversal: same graph with labels (reversed y, reversed x)."""
    return BiLabeled(k.graph, tuple(reversed(k.y)), tuple(reversed(k.x)))


def relative_tensor(k1, k2):
    """Glue the shared last label of k1 to the shared first label of k2.

    Both inputs must have x0=y0 and x_last=y_last (connected); the result
    again does, and its homomorphism matrix is the relative tensor of the
    two matrices (shared middle index)."""
    for k in (k1, k2):
        if not classify(k)["in_L"]:
            raise ValidationError("relative tensor needs inputs with "
                                  "x0=y0 and x_last=y_last, connected")
    off = k1.graph.vertex_count
    nv = off + k2.graph.vertex_count
    edges = list(k1.graph.undirected_edges())
    edges += [(u + off, w + off) for (u, w) in k2.graph.undirected_edges()]
    pairs = [(k1.x[-1], k2.x[0] + off)]
    g, (x, y) = _quotient(
        nv, edges, pairs,
        [k1.x + tuple(v + off for v in k2.x[1:]),
         k1.y + tuple(v + off for v in k2.y[1:])])
    return BiLabeled(g, x, y)


# ---------------------------------------------------------------------------
# Generators and gadgets

def m_gadget(n, m):
    """Single vertex, no edges, all n+m labels on it."""
    if n < 0 or m < 0:
        raise ValidationError("label counts must be >= 0")
    g = FiniteGraph(1, [])
    return BiLabeled(g, (0,) * n, (0,) * m)


def adjacency_gadget():
    """Single edge, x on one endpoint, y on the other."""
    return BiLabeled(FiniteGraph(2, [(0, 1)]), (0,), (1,))


def identity_tensor(k):
    """Tensor power of the identity gadget M^{1,1}."""
    g = FiniteGraph(k, [])
    return BiLabeled(g, tuple(range(k)), tuple(range(k)))


def interval_gadget(k):
    """Path on k vertices with x = y = (0,...,k-1)."""
    if k < 1:
        raise ValidationError("interval gadget needs k >= 1")
    g = FiniteGraph(k, [(i, i + 1) for i in range(k - 1)])
    labs = tuple(range(k))
    return BiLabeled(g, labs, labs)


def rainbow_gadget(n):
    """n isolated vertices with x = (v1..vn,vn..v1), y empty.

    The matrix is the palindrome indicator on 2n-tuples; this is the
    nested cups diagram built from M^{2,0}."""
    if n < 1:
        raise ValidationError("rainbow gadget needs n >= 1")
    g = FiniteGraph(n, [])
    x = tuple(range(n)) + tuple(reversed(range(n)))
    return BiLabeled(g, x, ())


def s_gadget(n):
    """The gadget whose composition with K tensor identities produces the
    conjugate-equation solutions: built as nested cups over a cap."""
    if n < 1:
        raise ValidationError("s gadget needs n >= 1")
    k = m_gadget(2, 1)
    for j in range(1, n):
        layer = tensor(tensor(identity_tensor(j), m_gadget(2, 0)),
                       identity_tensor(j))
        k = compose(layer, k)
    top = tensor(tensor(identity_tensor(n), m_gadget(1, 0)),
                 identity_tensor(n))
    return compose(top, k)


def distance_diag_gadget(ds):
    """Concatenated path with labels at partial sums of ds, x = y.

    Its hom matrix is diagonal; the (i,i) entry counts label-respecting
    walks, positive exactly when consecutive label images are joined by
    paths of the prescribed lengths."""
    ds = [int(d) for d in ds]
    if any(d < 0 for d in ds):
        raise ValidationError("path lengths must be >= 0")
    total = sum(ds)
    g = FiniteGraph(total + 1, [(i, i + 1) for i in range(total)])
    labs = [0]
    acc = 0
    for d in ds:
        acc += d
        labs.append(acc)
    labs = tuple(labs)
    return BiLabeled(g, labs, labs)


def circular_gadget(n):
    """Cycle of length n with x walking once around and y the base point."""
    if n < 2:
        raise ValidationError("circular gadget needs n >= 2")
    g = FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)])
    x = tuple(i % n for i in range(n + 1))
    return BiLabeled(g, x, (0,))


# ---------------------------------------------------------------------------
# Canonical forms

def _refine_colors(g, colors):
    while True:
        sig = {}
        for v in range(g.vertex_count):
            nb = tuple(sorted(colors[w] for w in g.neighbors(v)))
            sig[v] = (colors[v], nb)
        order = sorted(set(sig.values()))
        new = {v: order.index(sig[v]) for v in range(g.vertex_count)}
        if all(new[v] == colors[v] for v in range(g.vertex_count)):
            return colors
        colors = new


def canonical_key(k):
    """Canonical tuple (nv, edges, x, y) invariant under label-respecting
    graph isomorphism.  Pinned vertices (those carrying labels) get
    distinct forced colors; the rest are canonicalized by refinement plus
    brute-force tie-breaking within color cells."""
    g = k.graph
    pin = {}
    for v in k.x + k.y:
        if v not in pin:
            pin[v] = len(pin)
    colors = {v: (pin[v] if v in pin else len(pin) +
                  g.vertex_count) for v in range(g.vertex_count)}
    # normalize to small ints
    cvals = sorted(set(colors.values()))
    colors = {v: cvals.index(c) for v, c in colors.items()}
    colors = _refine_colors(g, colors)
    cells = {}
    for v in range(g.vertex_count):
        cells.setdefault(colors[v], []).append(v)
    cell_list = [cells[c] for c in sorted(cells)]

    best = None
    def orders(idx, prefix):
        nonlocal best
        if idx == len(cell_list):
            order = prefix
            pos = {v: i for i, v in enumerate(order)}
            edges = tuple(sorted((min(pos[u], pos[w]), max(pos[u], pos[w]))
                                 for (u, w) in g.undirected_edges()))
            key = (g.vertex_count, edges,
                   tuple(pos[v] for v in k.x), tuple(pos[v] for v in k.y))
            if best is None or key < best:
                best = key
            return
        cell = cell_list[idx]
        if len(cell) == 1:
            orders(idx + 1, prefix + cell)
        else:
            for perm in permutations(cell):
                orders(idx + 1, prefix + list(perm))

    orders(0, [])
    return best


def canonical(k):
    """Relabeled copy realizing the canonical key."""
    nv, edges, x, y = canonical_key(k)
    return BiLabeled(FiniteGraph(nv, edges), x, y)


# ---------------------------------------------------------------------------
# Planar closure generation

def generate_planar_closure(max_labels, size_budget):
    """Closure of {M^{1,0}, M^{1,2}, A, M^{1,1}, M^{2,0}} under
    composition, tensor and transpose, truncated to graphs within the
    vertex and label budgets.  Returns (members sorted by canonical key,
    report) where the report counts budget-truncated products."""
    if max_labels < 1 or size_budget < 1:
        raise ValidationError("budgets must be positive")
    gens = [m_gadget(1, 0), m_gadget(1, 2), adjacency_gadget(),
            m_gadget(1, 1), m_gadget(2, 0)]
    # All single-vertex gadgets lie in the generated family; seeding them
    # directly compensates for budget truncation of the derivations that
    # pass through multi-vertex intermediates.
    for n in range(max_labels + 1):
        for m in range(max_labels + 1):
            if n + m >= 1:
                gens.append(m_gadget(n, m))
    seen = {}
    truncated = 0

    def admit(k):
        nonlocal truncated
        if (k.graph.vertex_count > size_budget
                or k.n > max_labels or k.m > max_labels):
            truncated += 1
            return False
        key = canonical_key(k)
        if key in seen:
            return False
        seen[key] = canonical(k)
        return True

    for g in gens:
        admit(g)
    rounds = 0
    fresh = list(seen.values())
    while fresh:
        rounds += 1
        new = []
        current = list(seen.values())
        for a in fresh:
            t = transpose(a)
            if admit(t):
                new.append(seen[canonical_key(t)])
        for a in current:
            for b in current:
                if a not in fresh and b not in fresh:
                    continue
                if a.m == b.n:
                    c = compose(a, b)
                    if admit(c):
                        new.append(seen[canonical_key(c)])
                if (a.n + b.n <= max_labels and a.m + b.m <= max_labels
                        and a.graph.vertex_count + b.graph.vertex_count
                        <= size_budget):
                    c = tensor(a, b)
                    if admit(c):
                        new.append(seen[canonical_key(c)])
        fresh = new
    items = [seen[key] for key in sorted(seen)]
    report = {"members": len(items), "rounds": rounds,
              "truncated_products": truncated}
    return items, report


# ---------------------------------------------------------------------------
# Serialization

def blg_to_json(k):
    return {"n": k.n, "m": k.m, "vertices": k.graph.vertex_count,
            "edges": [list(e) for e in k.graph.undirected_edges()],
            "x": list(k.x), "y": list(k.y)}


def blg_from_json(doc):
    try:
        g = FiniteGraph(int(doc["vertices"]),
                        [(int(u), int(v)) for (u, v) in doc["edges"]])
        k = BiLabeled(g, doc["x"], doc["y"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad bi-labeled graph document: %s" % exc)
    if k.n != int(doc["n"]) or k.m != int(doc["m"]):
        raise ValidationError("label tuple lengths disagree with n/m")
    return k
