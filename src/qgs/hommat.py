"""Exact homomorphism-matrix computation.

The matrix of a bi-labeled graph over a target graph counts, for each
pair (i,j) of label-image tuples, the graph homomorphisms K -> target
pinning x to i and y to j.  Finite targets get complete sparse matrices;
locally finite providers get windowed matrices where one side of label
tuples ranges over an explicit tuple window and exploration stays inside
balls around the pinned vertices.
"""

from collections import deque

from .graphs import ValidationError


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

    def __init__(self, blg, entries, row_window=None, col_window=None,
                 complete=True):
        self.blg = blg
        self.entries = entries            # (row tuple, col tuple) -> int
        self.row_window = row_window      # None means complete over target
        self.col_window = col_window
        self.complete = complete

    def entry(self, i, j):
        return self.entries.get((tuple(i), tuple(j)), 0)


def _search_order(k, pinned):
    """Vertices of K ordered so each one (after the pins) touches an
    earlier vertex when possible; BFS from the pinned set."""
    g = k.graph
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


def _enumerate_homs(k, neighbor_fn, all_vertices_fn, pins, visit=None):
    """Backtracking over graph homomorphisms K -> target extending pins.

    neighbor_fn(key) lists target neighbors; all_vertices_fn() lists all
    target vertices (only needed when a component has no pinned vertex,
    so it may be None for providers).  visit(phi) is called per hom with
    the full assignment dict; without a visitor the homs are only
    counted.  Returns the number of homs.
    """
    g = k.graph
    for (u, v) in pins.items():
        for w in g.neighbors(u):
            if w in pins and pins[w] not in neighbor_fn(v):
                return 0
    order = [v for v in _search_order(k, sorted(pins)) if v not in pins]
    phi = dict(pins)
    count = 0

    def extend(idx):
        nonlocal count
        if idx == len(order):
            count += 1
            if visit is not None:
                visit(phi)
            return
        v = order[idx]
        assigned_nbrs = [phi[w] for w in g.neighbors(v) if w in phi]
        if assigned_nbrs:
            cands = set(neighbor_fn(assigned_nbrs[0]))
            for t in assigned_nbrs[1:]:
                cands &= set(neighbor_fn(t))
            if g.has_edge(v, v):
                cands = {c for c in cands if c in neighbor_fn(c)}
        else:
            if all_vertices_fn is None:
                raise ValidationError(
                    "component without pinned vertex on an infinite target")
            cands = all_vertices_fn()
            if g.has_edge(v, v):
                cands = [c for c in cands if c in neighbor_fn(c)]
        if visit is None and idx == len(order) - 1:
            count += len(cands)
            return
        for c in sorted(cands):
            phi[v] = c
            extend(idx + 1)
            del phi[v]

    extend(0)
    return count


def hom_matrix(k, target):
    """Complete sparse homomorphism matrix over a finite target."""
    entries = {}

    def visit(phi):
        key = (tuple(phi[v] for v in k.x), tuple(phi[v] for v in k.y))
        entries[key] = entries.get(key, 0) + 1

    _enumerate_homs(k, target.neighbors, lambda: range(target.vertex_count),
                    {}, visit)
    return HomMatrix(k, entries)


def hom_matrix_windowed(k, p, rows, cols):
    """Windowed homomorphism matrix over a provider.

    Every (row, col) pair with row in `rows` and col in `cols` gets its
    exact count; pairs whose column falls outside `cols` are dropped.
    The bi-labeled graph must be connected with at least one label."""
    if k.n + k.m == 0:
        raise ValidationError("windowed counting needs at least one label")
    if rows.arity != k.n or cols.arity != k.m:
        raise ValidationError("window arities do not match the labels")
    entries = {}
    if k.n >= 1:
        pin_labels, scan, out_labels = k.x, rows, k.y
    else:
        pin_labels, scan, out_labels = k.y, cols, k.x
    for t in scan.tuples:
        pins = {}
        ok = True
        for v, img in zip(pin_labels, t):
            if v in pins and pins[v] != img:
                ok = False
                break
            pins[v] = img
        if not ok:
            continue
        if k.x == k.y:
            # every label is pinned, so the count is the whole entry
            if t in cols:
                count = _enumerate_homs(k, p.neighbors, None, pins)
                if count:
                    entries[(t, t)] = count
            continue

        def visit(phi, t=t):
            other = tuple(phi[v] for v in out_labels)
            if k.n >= 1:
                if k.m == 0 or other in cols:
                    key = (t, other)
                else:
                    return
            else:
                key = (other, t)
                if other not in rows:
                    return
            entries[key] = entries.get(key, 0) + 1

        _enumerate_homs(k, p.neighbors, None, pins, visit)
    return HomMatrix(k, entries, row_window=rows, col_window=cols,
                     complete=False)


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


def export_triplets(hm):
    """Sparse (row, col, value) triplets in a deterministic order."""
    return [(list(i), list(j), hm.entries[(i, j)])
            for (i, j) in sorted(hm.entries)]
