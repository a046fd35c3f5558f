"""Finite graphs and locally finite graph providers.

Finite graphs are plain adjacency structures (loops allowed, no
multi-edges).  Infinite graphs are presented as providers: a neighbor
oracle over canonical string vertex keys, plus a base vertex.  Balls,
distances, classical automorphisms and the standard constructions
(Cayley graphs, regular trees, the grandparent graph, fiber products)
live here.
"""

from collections import deque
from itertools import combinations
from numbers import Integral

import numpy as np

DEFAULT_VERTEX_BUDGET = 100_000
DEFAULT_AUT_LIMIT = 10


class BudgetExceeded(Exception):
    """Raised when a ball would exceed the configured vertex budget."""


class ValidationError(Exception):
    """Raised on invalid constructor input."""


class FiniteGraph:
    """Undirected finite graph on vertices 0..n-1 (loops allowed)."""

    def __init__(self, vertex_count, edges):
        self.vertex_count = int(vertex_count)
        if self.vertex_count < 0:
            raise ValidationError("vertex count %d is negative"
                                  % self.vertex_count)
        es = set()
        for (u, v) in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValidationError("edge (%s,%s) out of range" % (u, v))
            es.add((u, v))
            es.add((v, u))
        self.edges = frozenset(es)
        self._nbrs = [[] for _ in range(self.vertex_count)]
        for (u, v) in sorted(es):
            self._nbrs[u].append(v)

    def neighbors(self, v):
        return self._nbrs[v]

    def degree(self, v):
        return len(self._nbrs[v])

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def undirected_edges(self):
        return sorted((u, v) for (u, v) in self.edges if u <= v)

    def is_connected(self):
        if self.vertex_count == 0:
            return True
        seen = {0}
        todo = deque([0])
        while todo:
            u = todo.popleft()
            for w in self._nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == self.vertex_count

    def __eq__(self, other):
        return (isinstance(other, FiniteGraph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return "FiniteGraph(%d, %r)" % (self.vertex_count, self.undirected_edges())


def cycle_graph(n):
    return FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return FiniteGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return FiniteGraph(n, list(combinations(range(n), 2)))


def parse_graph_file(text):
    """Parse the text format: line 1 `finite <n>`, then `edge <u> <v>` lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("empty graph file")
    lno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "finite":
        raise ValidationError("line %d: expected `finite <n>`" % lno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ValidationError("line %d: bad vertex count %r" % (lno, parts[1]))
    edges = []
    for lno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "edge":
            raise ValidationError("line %d: expected `edge <u> <v>`" % lno)
        try:
            edges.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise ValidationError("line %d: bad edge endpoints" % lno)
    try:
        return FiniteGraph(n, edges)
    except ValidationError as exc:
        raise ValidationError("graph file: %s" % exc)


class GraphProvider:
    """Locally finite graph given by a neighbor oracle over string keys."""

    def __init__(self, neighbor_fn, base_vertex, kind="custom",
                 vertex_budget=DEFAULT_VERTEX_BUDGET):
        self._fn = neighbor_fn
        self.base_vertex = base_vertex
        self.kind = kind
        self.vertex_budget = vertex_budget
        self._cache = {}

    def neighbors(self, v):
        got = self._cache.get(v)
        if got is None:
            got = list(self._fn(v))
            self._cache[v] = got
        return got

    def degree(self, v):
        return len(self.neighbors(v))

    def has_edge(self, u, v):
        return v in self.neighbors(u)


def finite_provider(g):
    """Wrap a FiniteGraph as a provider (string vertex keys)."""
    return GraphProvider(lambda v: [str(w) for w in g.neighbors(int(v))],
                         "0" if g.vertex_count else None, kind="finite")


class EmbeddedBall:
    """The vertices of a radius-r ball of a provider, in BFS order."""

    def __init__(self, keys, center, radius, distances):
        self.keys = keys                       # local index -> provider key
        self.index = {k: i for i, k in enumerate(keys)}
        self.center = center
        self.radius = radius
        self.distances = distances             # provider key -> distance from center


def ball(p, center, radius):
    """BFS-exact ball: its vertex keys and their distances."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    dist = {center: 0}
    order = [center]
    todo = deque([center])
    while todo:
        u = todo.popleft()
        if dist[u] == radius:
            continue
        for w in p.neighbors(u):
            if w not in dist:
                if len(dist) >= p.vertex_budget:
                    raise BudgetExceeded(
                        "ball exceeds vertex budget %d" % p.vertex_budget)
                dist[w] = dist[u] + 1
                order.append(w)
                todo.append(w)
    return EmbeddedBall(order, center, radius, dist)


def distance(p, u, v, cap):
    """Exact provider distance if <= cap, else None (above-cap marker)."""
    if u == v:
        return 0
    seen = {u: 0}
    todo = deque([u])
    while todo:
        w = todo.popleft()
        d = seen[w]
        if d >= cap:
            continue
        for z in p.neighbors(w):
            if z not in seen:
                seen[z] = d + 1
                if z == v:
                    return d + 1
                todo.append(z)
    return None


def all_pairs_distances(g):
    """BFS distances of a finite graph as a list of rows; -1 marks a
    pair in different components."""
    n = g.vertex_count
    dist = [[-1] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        todo = deque([s])
        while todo:
            u = todo.popleft()
            for v in g.neighbors(u):
                if dist[s][v] < 0:
                    dist[s][v] = dist[s][u] + 1
                    todo.append(v)
    return dist


def classical_aut(g):
    """All automorphisms of a small finite graph, plus the vertex orbits.

    Backtracking over images with degree and adjacency pruning.  Returns
    (list of permutations as tuples, orbit partition as list of sorted lists).
    """
    n = g.vertex_count
    if n > DEFAULT_AUT_LIMIT:
        raise ValidationError("vertex count %d exceeds brute-force limit %d"
                              % (n, DEFAULT_AUT_LIMIT))
    degs = [g.degree(v) for v in range(n)]
    perms = []
    image = [None] * n
    used = [False] * n

    def extend(k):
        if k == n:
            perms.append(tuple(image))
            return
        for w in range(n):
            if used[w] or degs[w] != degs[k]:
                continue
            ok = True
            for u in range(k):
                if g.has_edge(u, k) != g.has_edge(image[u], w):
                    ok = False
                    break
            if ok and g.has_edge(k, k) == g.has_edge(w, w):
                image[k] = w
                used[w] = True
                extend(k + 1)
                used[w] = False
        image[k] = None

    extend(0)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for v in range(n):
            ra, rb = find(v), find(p[v])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    orbits = sorted(groups.values())
    return perms, orbits


# ---------------------------------------------------------------------------
# Group specifications and Cayley graphs

class GroupSpec:
    """A discrete group with a total word oracle and a generating set.

    Elements are canonical hashable normal forms; `key(el)` turns one
    into a string vertex key.  Generators are listed as (name, element)
    pairs; `inverse(el)` is total.
    """

    def __init__(self, variant, identity, multiply, inverse, generators,
                 elements=None):
        self.variant = variant
        self.identity = identity
        self.multiply = multiply
        self.inverse = inverse
        self.generators = list(generators)     # list of (name, element)
        self.elements = elements               # list for finite groups, else None

    def key(self, el):
        return repr(el)

    def word(self, letters):
        acc = self.identity
        for el in letters:
            acc = self.multiply(acc, el)
        return acc

    def generator_elements(self):
        return [el for (_, el) in self.generators]

    def generating_set_symmetric(self):
        gens = self.generator_elements()
        return all(self.inverse(el) in gens for el in gens)


def finite_table_group(mul, generators=None):
    """Finite group from a multiplication table mul[a][b]; elements 0..n-1."""
    n = len(mul)
    for row in mul:
        if len(row) != n:
            raise ValidationError("multiplication table not square")
    if not all(isinstance(c, Integral) and 0 <= c < n
               for row in mul for c in row):
        raise ValidationError("table entries must be integers in 0..%d"
                              % (n - 1))
    table = np.array(mul, dtype=np.intp).reshape(n, n)
    identity = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise ValidationError("table has no identity element")
    inv = {}
    for a in range(n):
        for b in range(n):
            if mul[a][b] == identity and mul[b][a] == identity:
                inv[a] = b
    if len(inv) != n:
        raise ValidationError("table has non-invertible elements")
    # (ab)c = a(bc), one row a at a time: both sides as n x n arrays
    # indexed by (b, c)
    for a in range(n):
        bad = np.argwhere(table[table[a]] != table[a][table])
        if len(bad):
            b, c = bad[0].tolist()
            raise ValidationError(
                "table is not associative: (%d*%d)*%d != %d*(%d*%d)"
                % (a, b, c, a, b, c))
    if generators is None:
        generators = [a for a in range(n) if a != identity]
    gens = [("g%d" % a, a) for a in generators]
    spec = GroupSpec("finite_table", identity,
                     lambda a, b: mul[a][b], lambda a: inv[a],
                     gens, elements=list(range(n)))
    # generation check by ball growth
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for (_, s) in gens:
                b = mul[a][s]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    if len(seen) != n:
        raise ValidationError("generators do not generate the group")
    return spec


def cyclic_group(n):
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return finite_table_group(mul, generators=[g for g in (1, n - 1) if g != 0])


def free_product_cyclic_group(orders):
    """Free product of cyclic groups Z/o1 * Z/o2 * ...; syllable normal form.

    Elements are tuples of syllables (generator_index, exponent) with
    exponent in 1..order-1 and no two adjacent syllables sharing an index.
    An order of 0 means an infinite cyclic free factor.
    """
    orders = list(orders)

    def norm_exp(i, e):
        if orders[i]:
            e %= orders[i]
        return e

    def mul(a, b):
        out = list(a)
        for (i, e) in b:
            if out and out[-1][0] == i:
                ee = norm_exp(i, out[-1][1] + e)
                out.pop()
                if ee:
                    out.append((i, ee))
            else:
                out.append((i, e))
        return tuple(out)

    def inv(a):
        return tuple((i, norm_exp(i, -e)) for (i, e) in reversed(a))

    gens = []
    for i, o in enumerate(orders):
        name = chr(ord("a") + i) if i < 26 else "g%d" % i
        gens.append((name, ((i, 1),)))
        if o != 2:
            gens.append((name + "^-1", ((i, norm_exp(i, -1)),)))
    return GroupSpec("free_product_cyclic", (), mul, inv, gens)


def free_group(rank):
    """Free group on `rank` letters; reduced-word normal form."""
    spec = free_product_cyclic_group([0] * rank)
    spec.variant = "free"
    return spec


def integers_group():
    return free_group(1)


def cayley_graph(spec, vertex_budget=DEFAULT_VERTEX_BUDGET):
    """Cayley graph provider; vertex keys are normal-form strings."""
    gens = spec.generator_elements()
    for s in gens:
        if s == spec.identity:
            raise ValidationError("identity element in generating set")
        if spec.inverse(s) not in gens:
            raise ValidationError("generating set is not symmetric")
    decode = {spec.key(spec.identity): spec.identity}

    def nbrs(vkey):
        el = decode[vkey]
        out = []
        for s in gens:
            w = spec.multiply(el, s)
            wk = spec.key(w)
            decode.setdefault(wk, w)
            out.append(wk)
        return out

    p = GraphProvider(nbrs, spec.key(spec.identity), kind="cayley",
                      vertex_budget=vertex_budget)
    p.group = spec
    p.decode = decode
    return p


# ---------------------------------------------------------------------------
# Trees, grandparent graph, fiber products

def tree_provider(d, vertex_budget=DEFAULT_VERTEX_BUDGET):
    """The d-regular infinite tree.  Keys: '' for the root, dot-paths below."""
    if d < 1:
        raise ValidationError("tree degree must be >= 1")

    def nbrs(v):
        out = []
        if v == "":
            return [str(c) for c in range(d)]
        parts = v.split(".")
        out.append(".".join(parts[:-1]))
        for c in range(d - 1):
            out.append(v + "." + str(c))
        return out

    return GraphProvider(nbrs, "", kind="tree", vertex_budget=vertex_budget)


def _gp_parent(v):
    k, w = v
    if w:
        return (k, w[:-1])
    return (k + 1, "")


def _gp_children(v, d):
    k, w = v
    out = []
    if w == "":
        if k == 0:
            out = [(0, str(c)) for c in range(d - 1)]
        else:
            out = [(k - 1, "")] + [(k, str(c)) for c in range(1, d - 1)]
    else:
        out = [(k, w + str(c)) for c in range(d - 1)]
    return out


def grandparent_graph(d, vertex_budget=DEFAULT_VERTEX_BUDGET):
    """The grandparent graph over the d-regular tree with a fixed end.

    Vertices are tree vertices keyed '(k|w)': k steps up the spine from
    the base vertex, then descent word w (digit 0 below a spine vertex is
    the spine itself, so words there start with 1..d-2).  Edges: the tree
    edges (short) plus vertex-to-grandparent edges (long).  Regularity
    d^2-d+2.  The provider carries the orientation helpers used by the
    edge classification.
    """
    if d < 3:
        raise ValidationError("grandparent graph needs d >= 3")

    def key(v):
        return "(%d|%s)" % v

    def decode(vk):
        k, w = vk[1:-1].split("|")
        return (int(k), w)

    def nbrs(vk):
        v = decode(vk)
        short = [_gp_parent(v)] + _gp_children(v, d)
        long_ = [_gp_parent(_gp_parent(v))]
        for c in _gp_children(v, d):
            long_.extend(_gp_children(c, d))
        return [key(u) for u in short + long_]

    p = GraphProvider(nbrs, key((0, "")), kind="grandparent",
                      vertex_budget=vertex_budget)
    p.d = d
    p.parent_key = lambda vk: key(_gp_parent(decode(vk)))
    p.grandparent_key = lambda vk: key(_gp_parent(_gp_parent(decode(vk))))

    def edge_class(uk, wk):
        """Classify an oriented edge (u,w): 'positive_short' (w is u's
        parent), 'negative_short' (w is a child of u), 'long', or None."""
        if p.parent_key(uk) == wk:
            return "positive_short"
        if p.parent_key(wk) == uk:
            return "negative_short"
        if p.grandparent_key(uk) == wk or p.grandparent_key(wk) == uk:
            return "long"
        return None

    p.edge_class = edge_class
    return p


def product_graph(base, fibers, vertex_budget=DEFAULT_VERTEX_BUDGET):
    """Fiber product: replace each base vertex v by the finite graph
    fibers(v); same-fiber edges per the fiber graph, and complete joins
    between fibers over adjacent base vertices."""
    kappa = None
    fdeg = None

    def fiber_checked(v):
        nonlocal kappa, fdeg
        g = fibers(v)
        degs = {g.degree(x) for x in range(g.vertex_count)} or {0}
        if any(g.has_edge(x, x) for x in range(g.vertex_count)):
            raise ValidationError("fiber at %r has a loop" % (v,))
        if len(degs) != 1:
            raise ValidationError("fiber at %r is not regular" % (v,))
        deg = degs.pop()
        if kappa is None:
            kappa, fdeg = g.vertex_count, deg
            if fdeg >= kappa:
                raise ValidationError("fiber degree must be < fiber size")
        elif (g.vertex_count, deg) != (kappa, fdeg):
            raise ValidationError("fiber size/degree mismatch at %r" % (v,))
        return g

    def key(v, i):
        return "%s#%d" % (v, i)

    def decode(vk):
        v, i = vk.rsplit("#", 1)
        return v, int(i)

    def nbrs(vk):
        v, i = decode(vk)
        g = fiber_checked(v)
        out = [key(v, j) for j in g.neighbors(i)]
        for w in base.neighbors(v):
            out.extend(key(w, j) for j in range(kappa))
        return out

    fiber_checked(base.base_vertex)
    p = GraphProvider(nbrs, key(base.base_vertex, 0), kind="product",
                      vertex_budget=vertex_budget)
    p.base = base
    p.kappa = kappa
    p.base_of = lambda vk: decode(vk)[0]
    return p


def provider_from_spec(spec, vertex_budget=DEFAULT_VERTEX_BUDGET):
    """Build a provider from a JSON-style dict specification."""
    kind = spec.get("type")
    if kind == "tree":
        return tree_provider(int(spec["d"]), vertex_budget)
    if kind == "grandparent":
        return grandparent_graph(int(spec["d"]), vertex_budget)
    if kind == "cayley":
        return cayley_graph(group_from_spec(spec["group"]), vertex_budget)
    if kind == "finite_table":
        g = finite_table_group(spec["mul"], spec.get("generators"))
        return cayley_graph(g, vertex_budget)
    raise ValidationError("unknown provider type %r" % kind)


def group_from_spec(spec):
    kind = spec.get("type")
    if kind == "free":
        return free_group(int(spec["rank"]))
    if kind == "free_product_cyclic":
        return free_product_cyclic_group([int(o) for o in spec["orders"]])
    if kind == "finite_table":
        return finite_table_group(spec["mul"], spec.get("generators"))
    if kind == "cyclic":
        return cyclic_group(int(spec["n"]))
    raise ValidationError("unknown group type %r" % kind)
