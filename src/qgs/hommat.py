"""Exact homomorphism-matrix computation.

The matrix of a bi-labeled graph over a target graph counts, for each
pair (i,j) of label-image tuples, the graph homomorphisms K -> target
pinning x to i and y to j.  Each kind of target has one counting
kernel.

Finite targets: `PatternTrie.rows` enumerates every homomorphism of
each pattern of a list at once, as a join over the target's neighbour
arrays with one row per map, in the lexicographic order of the images
along the pattern's search order.  The patterns' join steps form a
prefix trie walked depth first, so a step shared by several patterns
is joined once, and the target's arrays are built once per walk.
`hom_rows` is the walk of one pattern.  `hom_matrix` reads the complete
sparse matrix off the rows' label columns, and `pinned_pair_counts` the
counts at every pair of pins off bincounts of two columns.

Locally finite providers: `hom_matrix_windowed` pins the labels of one
side to each tuple of a window and counts with a plan compiled once per
call (`_Plan`).  The plan assigns the unpinned vertices in search order,
and after each assignment splits the rest into connected parts whose
counts multiply (elimination as in Diaz, Serna and Thilikos, "Counting
H-colorings of partial k-trees").  A part's count is memoized on the
images of its boundary, the assigned vertices it touches, so it is
computed once per boundary image and not once per pinned tuple.  Output
labels that are not pinned are free: a part that holds free vertices
counts per image of them, so one pass gives every entry of a pinned
tuple, and only the images that occur.
"""

from collections import deque
from operator import itemgetter

import numpy as np

from .graphs import BudgetExceeded, ValidationError


class TupleWindow:
    """Explicit ordered list of distinct vertex tuples of a fixed arity."""

    def __init__(self, arity, tuples):
        self.arity = int(arity)
        self.tuples = [tuple(t) for t in tuples]
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValidationError("tuple %r has wrong arity" % (t,))
        self.index = {t: i for i, t in enumerate(self.tuples)}
        if len(self.index) != len(self.tuples):
            raise ValidationError("window tuples must be distinct")

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, t):
        return tuple(t) in self.index


def all_tuples_window(n_vertices, arity):
    """Full window I^arity for a finite target with vertices 0..n-1."""
    tuples = [()]
    for _ in range(arity):
        tuples = [t + (v,) for t in tuples for v in range(n_vertices)]
    return TupleWindow(arity, tuples)


class HomMatrix:
    """Sparse exact-integer homomorphism matrix of a bi-labeled graph."""

    def __init__(self, entries):
        self.entries = entries            # (row tuple, col tuple) -> int

    def entry(self, i, j):
        return self.entries.get((tuple(i), tuple(j)), 0)


def _search_order(g, pinned):
    """Vertices of g ordered so each one (after the pins) touches an
    earlier vertex when possible; BFS from the pinned set."""
    seen = list(pinned)
    seen_set = set(pinned)
    todo = deque(pinned)
    while len(seen) < g.vertex_count:
        if not todo:
            v = min(set(range(g.vertex_count)) - seen_set)
            seen.append(v)
            seen_set.add(v)
            todo.append(v)
        while todo:
            u = todo.popleft()
            for w in g.neighbors(u):
                if w not in seen_set:
                    seen.append(w)
                    seen_set.add(w)
                    todo.append(w)
    return seen


def _pinned_search_order(g, pinned):
    """The unpinned vertices of g in search order from the sorted pinned
    set; raises ValidationError when a component of g has no pin, since
    a provider cannot list every target vertex."""
    order = _search_order(g, pinned)[len(pinned):]
    seen = set(pinned)
    for v in order:
        if not any(w in seen for w in g.neighbors(v)):
            raise ValidationError(
                "pattern component without a pinned vertex")
        seen.add(v)
    return order


def _csr(target):
    """CSR neighbour arrays (indptr, indices) and the boolean adjacency
    matrix of a finite graph; neighbour lists are sorted."""
    q = target.vertex_count
    degrees = [target.degree(v) for v in range(q)]
    indptr = np.zeros(q + 1, dtype=np.intp)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter((w for v in range(q) for w in target.neighbors(v)),
                          dtype=np.intp, count=int(indptr[-1]))
    adj = np.zeros((q, q), dtype=bool)
    adj[np.repeat(np.arange(q), degrees), indices] = True
    return indptr, indices, adj


class _Node:
    """A node of a PatternTrie: the join steps from the root to it are
    a prefix of the search order of every pattern below it.

    `depth` is the number of vertices assigned on reaching it, `width`
    the vertex count of the largest pattern below it (the width of its
    rows), `ends` the (index, rank) of each pattern whose last step it
    is, with rank[v] the position of vertex v in the search order, and
    `kids` the (key, node) of each next step, in insertion order."""

    __slots__ = ("depth", "width", "ends", "kids")

    def __init__(self, depth):
        self.depth, self.width, self.ends, self.kids = depth, 0, [], []


class PatternTrie:
    """A list of patterns as a prefix trie of their join steps.

    A pattern's steps follow `_search_order(pattern, [])`.  The step of
    vertex v is keyed by the search positions of its earlier neighbours
    in `pattern.neighbors(v)` order, the first of which is the anchor
    it expands from, and by whether v is looped; the rows after a step
    depend on nothing else.  Patterns whose first k keys agree share
    their first k steps."""

    def __init__(self, patterns):
        self.root = _Node(0)
        for index, pattern in enumerate(patterns):
            n = pattern.vertex_count
            order = _search_order(pattern, [])
            rank = [0] * n
            for i, v in enumerate(order):
                rank[v] = i
            node = self.root
            node.width = max(node.width, n)
            for i, v in enumerate(order):
                key = (tuple(rank[w] for w in pattern.neighbors(v)
                             if rank[w] < i), pattern.has_edge(v, v))
                child = next((c for k, c in node.kids if k == key), None)
                if child is None:
                    child = _Node(i + 1)
                    node.kids.append((key, child))
                node = child
                node.width = max(node.width, n)
            node.ends.append((index, np.array(rank, dtype=np.intp)))

    def rows(self, target, budget_bytes):
        """Yield (index, rows) for every pattern, depth first: rows
        holds every homomorphism of patterns[index] into the finite
        graph `target`, one row per map, and column v the image of
        pattern vertex v (int32).

        Each step extends every row of its parent by the target
        neighbours of its anchor's image, keeps the candidates adjacent
        to the images of its other earlier neighbours, and on a looped
        vertex only looped candidates; a vertex with no earlier
        neighbour takes every target vertex.  The rows of a pattern are
        thus in the lexicographic order of their images along its
        search order.  A step knows its number of candidate rows before
        it allocates: with its index arrays, a candidate takes `width`
        int32 images and four intp words.  Raises BudgetExceeded when
        that, plus the rows kept for ancestors with steps still to
        take, exceeds budget_bytes."""
        q = target.vertex_count
        indptr, indices, adj = _csr(target)
        root = self.root
        rows = np.zeros((1, root.width), dtype=np.int32)
        for index, rank in root.ends:
            yield index, rows[:, rank]
        # ancestors with steps still to take: [rows, kids, next kid]
        frames = [[rows, root.kids, 0]] if root.kids else []
        while frames:
            frame = frames[-1]
            parent, kids, i = frame
            frame[2] = i + 1
            if i + 1 == len(kids):
                frames.pop()
            (anchors, loop), node = kids[i]
            if anchors:
                first = parent[:, anchors[0]]
                deg = indptr[first + 1] - indptr[first]
                total = int(deg.sum())
            else:
                total = len(parent) * q
            need = (total * (node.width * 4 + 4 * np.intp(0).itemsize)
                    + sum(f[0].nbytes for f in frames))
            if need > budget_bytes:
                raise BudgetExceeded(
                    "the homomorphism rows of a %d-vertex pattern on %d "
                    "vertices need %d bytes, over the signature budget of "
                    "%d bytes" % (node.width, q, need, budget_bytes))
            if anchors:
                src = np.repeat(np.arange(len(parent)), deg)
                start = indptr[first] - (np.cumsum(deg) - deg)
                new = indices[np.arange(total) + np.repeat(start, deg)]
            else:
                src = np.repeat(np.arange(len(parent)), q)
                new = np.tile(np.arange(q), len(parent))
            if len(anchors) > 1 or loop:
                keep = np.ones(total, dtype=bool)
                for a in anchors[1:]:
                    keep &= adj[new, parent[src, a]]
                if loop:
                    keep &= adj[new, new]
                src, new = src[keep], new[keep]
            rows = parent[src, :node.width]
            rows[:, node.depth - 1] = new
            # the last kid's parent rows are freed here, and this step's
            # index arrays before the next step allocates
            parent = frame = first = deg = start = src = new = keep = None
            for index, rank in node.ends:
                yield index, rows[:, rank]
            if node.kids:
                frames.append([rows, node.kids, 0])
            rows = None


def hom_rows(pattern, target, budget_bytes):
    """Every homomorphism of the graph `pattern` into the finite graph
    `target`, one row per map; column v holds the image of pattern
    vertex v (int32).  The one-pattern case of `PatternTrie.rows`: its
    steps form a chain, so a step's budget check counts its own rows
    alone."""
    return next(PatternTrie([pattern]).rows(target, budget_bytes))[1]


def hom_matrix(k, target, budget_bytes):
    """Complete sparse homomorphism matrix over a finite target, read
    off the label columns of hom_rows(k.graph, target, budget_bytes).
    Entries are inserted in the order of their first homomorphism in
    the rows' lexicographic search order.  Raises BudgetExceeded as
    hom_rows does."""
    labels = hom_rows(k.graph, target, budget_bytes)[:, list(k.x + k.y)]
    keys, first, counts = np.unique(labels, axis=0, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)
    return HomMatrix({(key[:k.n], key[k.n:]): c for key, c in
                      zip(map(tuple, keys[order].tolist()),
                          counts[order].tolist())})


def pinned_pair_counts(rows, q):
    """Pinned counts at every pair of pins, read off the homomorphism
    rows of an n-vertex pattern into a q-vertex target (`hom_rows`, or
    one pattern's rows from `PatternTrie.rows`): counts[x1, x2, i * q
    + j] is the number of homomorphisms mapping x1 to i and x2 to j,
    the entry ((i, j), (i, j)) of hom_matrix(BiLabeled(pattern, (x1,
    x2), (x1, x2)), target)."""
    n = rows.shape[1]
    counts = np.zeros((n, n, q * q), dtype=np.int64)
    for x1 in range(n):
        left = rows[:, x1].astype(np.int64) * q
        for x2 in range(n):
            counts[x1, x2] = np.bincount(left + rows[:, x2],
                                         minlength=q * q)
    return counts


class _Part:
    """A connected set of unassigned pattern vertices in a counting plan.

    Its boundary is the set of assigned vertices it touches, and
    `images` reads their images off an assignment.  Given those, its
    count sums over the images of `vertex` (the common target neighbors
    of the images of its assigned neighbors, `anchor` and then
    `anchors`, kept only if looped where `loop` is set) the product of
    the counts of `parts`, the components of the rest once `vertex` is
    assigned.  `free` lists the part's free vertices: `vertex` first if
    it is free, then those of `parts` in turn.  A part with free
    vertices counts per tuple of their images.  `index` numbers the
    part's memo table, and is None where the boundary is every assigned
    vertex: those images differ for every pinned tuple and every branch
    of the search, so a memo never hits."""

    __slots__ = ("index", "images", "vertex", "anchor", "anchors", "loop",
                 "parts", "free")


class _NeighborSets(dict):
    """Target neighbor sets as frozensets, read from neighbor_fn once
    per vertex."""

    def __init__(self, neighbor_fn):
        super().__init__()
        self.neighbor_fn = neighbor_fn

    def __missing__(self, t):
        s = self[t] = frozenset(self.neighbor_fn(t))
        return s


def _free_of(parts):
    return tuple(v for p in parts for v in p.free)


class _Plan:
    """Counting plan of the homomorphisms of g extending a pinning of
    the sorted vertex list `pinned`, per image of the unpinned vertices
    in `free`.

    Unpinned vertices are assigned in search order; after each
    assignment the unassigned rest of a part splits into its connected
    components, whose counts multiply.  `parts` are the top-level
    parts, `free` the free vertices in the order of the counter's keys,
    `size` the number of memoized parts and `pin_edges` the edges of g
    between pinned vertices, loops included."""

    def __init__(self, g, pinned, free):
        order = _pinned_search_order(g, pinned)
        self.g, self.free_set = g, frozenset(free)
        self.rank = {v: i for i, v in enumerate(order)}
        pinned_set = frozenset(pinned)
        self.pin_edges = [(u, w) for u in pinned for w in g.neighbors(u)
                          if w in pinned_set]
        self.size = 0
        self.parts = self._split(order, pinned_set)
        self.free = _free_of(self.parts)

    def _split(self, vertices, assigned):
        # one part per component of the vertices, in search order
        left = set(vertices)
        parts = []
        for v in vertices:
            if v not in left:
                continue
            left.discard(v)
            comp, todo = [v], [v]
            while todo:
                for w in self.g.neighbors(todo.pop()):
                    if w in left:
                        left.discard(w)
                        comp.append(w)
                        todo.append(w)
            comp.sort(key=self.rank.__getitem__)
            parts.append(self._part(comp, assigned))
        return tuple(parts)

    def _part(self, comp, assigned):
        g = self.g
        p = _Part()
        boundary = sorted({w for u in comp for w in g.neighbors(u)
                           if w in assigned})
        p.images = itemgetter(*boundary)
        p.index = None
        if len(boundary) < len(assigned):
            p.index = self.size
            self.size += 1
        # the first vertex in search order has an assigned neighbor
        p.vertex = v = comp[0]
        p.anchor, *p.anchors = (w for w in g.neighbors(v) if w in assigned)
        p.loop = g.has_edge(v, v)
        p.parts = self._split(comp[1:], assigned | {v})
        p.free = ((v,) if v in self.free_set else ()) + _free_of(p.parts)
        return p


class _Counter:
    """count(pins): {images of the plan's `free`: number of
    homomorphisms extending the pin dict with them}, without zero
    counts; empty when the pins miss an edge between pinned vertices.
    The pin dict is extended in place by the images tried.

    Parts without free vertices are counted as integers; a part with
    free vertices tries its candidates in sorted order.  Memoized parts'
    counts are kept per image of their boundary, and target neighbor
    sets are cached, for the life of the counter."""

    def __init__(self, plan, neighbor_fn):
        self.plan = plan
        self.memo = [{} for _ in range(plan.size)]
        self.nbrs = _NeighborSets(neighbor_fn)

    def __call__(self, pins):
        for u, w in self.plan.pin_edges:
            if pins[w] not in self.nbrs[pins[u]]:
                return {}
        return self.product(self.plan.parts, pins, ())

    def part_count(self, p, phi):
        # an integer, or {images of p.free: count} where p.free is set
        if p.index is not None:
            table = self.memo[p.index]
            images = p.images(phi)
            total = table.get(images)
            if total is not None:
                return total
        nbrs = self.nbrs
        cands = nbrs[phi[p.anchor]]
        for w in p.anchors:
            cands = cands & nbrs[phi[w]]
        if p.loop:
            cands = [c for c in cands if c in nbrs[c]]
        v = p.vertex
        if p.free:
            total = {}
            own = p.free[0] == v
            for c in sorted(cands):
                phi[v] = c
                for key, n in self.product(p.parts, phi,
                                           (c,) if own else ()).items():
                    total[key] = total.get(key, 0) + n
        elif not p.parts:
            total = len(cands)
        else:
            total = 0
            part_count = self.part_count
            for c in cands:
                phi[v] = c
                prod = 1
                for sub in p.parts:
                    prod *= part_count(sub, phi)
                    if not prod:
                        break
                total += prod
        if p.index is not None:
            table[images] = total
        return total

    def product(self, parts, phi, head):
        # {head + images of the parts' free vertices: product of the
        # parts' counts}
        scalar = 1
        tabled = []
        for sub in parts:
            if sub.free:
                tabled.append(sub)
            else:
                scalar *= self.part_count(sub, phi)
                if not scalar:
                    return {}
        counts = {head: scalar}
        for sub in tabled:
            sub_counts = self.part_count(sub, phi)
            counts = {a + b: x * y for a, x in counts.items()
                      for b, y in sub_counts.items()}
        return counts


def hom_matrix_windowed(k, p, rows, cols):
    """Windowed homomorphism matrix over a provider.

    The labels of one side (x, or y when there is none) are pinned to
    each tuple of their window in turn, and one counting plan gives
    every entry of that tuple: the count per image of the free output
    labels.  Every (row, col) pair with row in `rows` and col in `cols`
    gets its exact count; pairs whose other side falls outside its
    window are dropped (all are kept when m == 0).  Every component of
    the bi-labeled graph must have a label; a pattern with one that has
    none raises ValidationError before any tuple is scanned."""
    if k.n + k.m == 0:
        raise ValidationError("windowed counting needs at least one label")
    if rows.arity != k.n or cols.arity != k.m:
        raise ValidationError("window arities do not match the labels")
    if k.n >= 1:
        pin_labels, scan, out_labels = k.x, rows, k.y
        out_window = cols if k.m else None
    else:
        pin_labels, scan, out_labels = k.y, cols, k.x
        out_window = rows
    pinned = sorted(set(pin_labels))
    plan = _Plan(k.graph, pinned, set(out_labels) - set(pinned))
    count = _Counter(plan, p.neighbors)
    # an output label's image is read off the scanned tuple followed by
    # the free images
    known = pin_labels + plan.free
    picks = [known.index(v) for v in out_labels]
    same, row_first = k.x == k.y, k.n >= 1
    # a repeated label must have one image: read the pins back
    repeated = len(pinned) < len(pin_labels)
    reread = itemgetter(*pin_labels)
    entries = {}
    for t in scan.tuples:
        pins = dict(zip(pin_labels, t))
        if repeated and reread(pins) != t:
            continue
        for images, c in count(pins).items():
            if same:
                other = t
            else:
                both = t + images
                other = tuple(both[i] for i in picks)
            if out_window is None or other in out_window:
                entries[(t, other) if row_first else (other, t)] = c
    return HomMatrix(entries)


def partial_trace(entries, side):
    """Per-vertex diagonal sums of a square-arity sparse matrix.

    side='left' groups diagonal entries (i,i) by the first coordinate of
    i, side='right' by the last; returns a dict vertex -> sum."""
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    out = {}
    for (i, j), v in entries.items():
        if i == j:
            key = i[0] if side == "left" else i[-1]
            out[key] = out.get(key, 0) + v
    return out

