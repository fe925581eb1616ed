"""Exact linear algebra over the integers.

One matrix type, sparse rows, and one kernel: Smith divisors in plain
Python ints, so coefficient growth is harmless, by unit pivots in a
fill-reducing order and a dense loop, with no transform, on an echelon
triangle of the block left.  The elimination's record has one reader, a
forward solve over the pivots: with the block's transform it gives class
coordinates, and a row lies in the row lattice exactly when it maps to the
zero class.  A form runs at most two dense loops: one on the triangle for
the divisors, and one on the block as it stands for the transform, on the
first class query.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError


@dataclass(frozen=True)
class SparseMatrix:
    """An immutable integer matrix as sparse rows: each row a tuple of
    ``(column, value)`` pairs, columns increasing, values nonzero."""

    entries: tuple[tuple[tuple[int, int], ...], ...]
    num_cols: int

    @property
    def num_rows(self) -> int:
        return len(self.entries)


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a, dst, src, q):
    # row[dst] -= q * row[src]
    a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] -= q * row[src]


def _dense_smith(a, vcols) -> list[int]:
    """Dense Smith pivots on the rows ``a``, each column operation mirrored
    on the transform columns ``vcols``; returns the nonzero divisors."""
    m, n = len(a), len(vcols)
    t = 0
    while True:
        # the first pivot of minimal absolute value left; none beats a unit
        piv, best = None, 0
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (piv is None or x < best):
                    piv, best = (i, j), x
            if best == 1:
                break
        if piv is None:
            break
        _swap_rows(a, t, piv[0])
        _swap_cols(a, t, piv[1])
        _swap_rows(vcols, t, piv[1])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for r in range(m):
                if r != t and a[r][t]:
                    _add_row(a, r, t, a[r][t] // a[t][t])
                    if a[r][t]:
                        _swap_rows(a, t, r)
                        dirty = True
            if dirty:
                continue
            for c in range(n):
                if c != t and a[t][c]:
                    q = a[t][c] // a[t][t]
                    _add_col(a, c, t, q)
                    _add_row(vcols, c, t, q)
                    if a[t][c]:
                        _swap_cols(a, t, c)
                        _swap_rows(vcols, t, c)
                        dirty = True
            if dirty:
                continue
            # force the divisibility chain: fold in any non-multiple below;
            # a unit pivot divides everything
            pivot = a[t][t]
            for r in range(t + 1, m):
                if pivot > 1 and any(x % pivot for x in a[r][t + 1 :]):
                    _add_row(a, t, r, -1)
                    break
            else:
                break
        t += 1
    return [a[k][k] for k in range(t)]


def _echelon(a) -> list[list[int]]:
    """The nonzero rows of an echelon form of the rows ``a``, by unimodular
    row steps with no modulus: per column, the entry of least absolute value
    divides the others down (Euclid) until it alone is nonzero, and its row
    leaves.  Each row leads further right: no more rows than columns."""
    rows, out = [r for r in a if any(r)], []
    for j in range(len(a[0]) if a else 0):
        live = [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not p:
                    q = r[j] // p[j]
                    r[:] = [x - q * y for x, y in zip(r, p)]
            rows += [r for r in live if not r[j] and any(r)]
            live = [r for r in live if r[j]]
        out += live
    return out


@dataclass(frozen=True, eq=False)
class SmithForm:
    """Smith divisors and the elimination's record: per unit pivot, in order,
    its column and the other entries ``(j, x)`` of its sign-normalised row,
    and each pivot column's step; then the non-pivot columns and the sparse
    rows of the residual block on them."""

    divisors: list[int]
    pivots: tuple
    step: dict
    residual: tuple
    _images: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def orders(self) -> list[int]:
        """The divisors past the units: 0 per free class coordinate."""
        return self.divisors[self.divisors.count(1):]

    def _solve(self, row: dict) -> dict:
        """``row`` reduced in place by the pivots it reaches, and returned: a
        pivot row is +1 at its column c and elsewhere only on columns pivoted
        later, so each, from a heap in elimination order, is subtracted x[c]
        times.  What is left lies on the residual columns."""
        step = self.step
        heap = sorted(step[j] for j in row if j in step)
        while heap:
            c, subst = self.pivots[heapq.heappop(heap)]
            q = row.pop(c, 0)
            if not q:  # cancelled on the way
                continue
            for j, x in subst:
                if j in step and j not in row:
                    heapq.heappush(heap, step[j])
                row[j] = row.get(j, 0) - q * x
                if not row[j]:
                    del row[j]
        return row

    @cached_property
    def _residual_rows(self) -> dict[int, tuple[int, ...]]:
        """W, the dense loop's transform on the residual block, past the
        unit divisors, as a row per residual column; built once."""
        cols, block = self.residual
        a = [[row.get(j, 0) for j in cols] for row in block]
        w = [[int(i == j) for i in range(len(cols))] for j in range(len(cols))]
        _dense_smith(a, w)
        skip = len(cols) - len(self.orders)
        return {j: v[skip:] for j, v in zip(cols, zip(*w))}

    def _coordinates(self, row: dict) -> list[int]:
        """Class coordinates of the sparse ``row``: W on what the forward
        solve leaves of it, as pivot rows map to 0; no solve if there are none."""
        if not self.orders:
            return []
        out = [0] * len(self.orders)
        for j, x in self._solve(row).items():
            out = [y + x * v for y, v in zip(out, self._residual_rows[j])]
        return out

    def image(self, k: int) -> tuple[int, ...]:
        """Class coordinates of e_k, one per ``orders`` entry (row k of a
        unimodular V past the units, column i of M V in orders[i] Z); kept."""
        if k not in self._images:
            self._images[k] = tuple(self._coordinates({k: 1}))
        return self._images[k]

    def contains(self, M: SparseMatrix) -> bool:
        """Whether every row of ``M`` lies in the row lattice L this form was
        computed from: the class map's kernel is L, so each row must map to
        the zero class, 0 on the free coordinates and 0 mod d on the rest."""
        if M.num_cols != len(self.divisors):
            raise InputError("contains requires the form's column count")
        return not any(
            y % d if d else y
            for row in M.entries
            for y, d in zip(self._coordinates(dict(row)), self.orders)
        )


def smith_normal_form(M: SparseMatrix) -> SmithForm:
    """Smith form of a sparse matrix ``M``: the divisors, one per column
    (``d_1 | d_2 | ...`` positive, then zeros for the free part), and the
    record that class coordinates and membership read.  Unit pivots take a
    fill-reducing order (after Markowitz), in one loop: a ``(length, row)``
    heap, stale entries skipped, gives the shortest row holding a +-1; its
    unit in the column with the fewest rows is the pivot, the column is
    cleared from the other rows and its row set dropped, and the pivot row,
    sign-normalised and left to column operations, is recorded and dropped.
    The block left, on the columns it holds, is turned tall (its transpose
    has the same divisors) and brought to an echelon triangle, at most the
    short side square, and the dense loop takes that for the divisors, with
    no transform.  No row transform is built.
    """
    rows = [dict(row) for row in M.entries]
    in_col = [set() for _ in range(M.num_cols)]  # the rows held per column
    heap = []  # (length, row) per row holding a unit; stale ones skipped
    for i, row in enumerate(rows):
        for j in row:
            in_col[j].add(i)
        if 1 in row.values() or -1 in row.values():
            heap.append((len(row), i))
    heapq.heapify(heap)
    pivots = []
    while heap:
        size, p = heapq.heappop(heap)
        prow = rows[p]
        if len(prow) != size:
            continue
        c, fewest = -1, len(rows) + 1
        for j, x in prow.items():
            if x == 1 or x == -1:
                k = len(in_col[j])
                if k < fewest or k == fewest and j < c:
                    c, fewest = j, k
        if c < 0:  # no unit left
            continue
        rows[p] = {}
        if prow.pop(c) == 1:
            items = tuple(prow.items())
        else:
            items = tuple((j, -x) for j, x in prow.items())
        col, in_col[c] = in_col[c], None  # no row holds column c again
        col.remove(p)
        for r in col:
            row = rows[r]
            q = row.pop(c)
            for j, x in items:
                y = row.get(j)
                if y is None:  # a new entry: nonzero, as q and x are
                    row[j] = -q * x
                    in_col[j].add(r)
                elif y == q * x:
                    del row[j]
                    in_col[j].discard(r)
                else:
                    row[j] = y - q * x
            if 1 in row.values() or -1 in row.values():
                heapq.heappush(heap, (len(row), r))
        for j, _ in items:
            in_col[j].discard(p)
        pivots.append((c, items))
    block = tuple(row for row in rows if row)
    step = {c: s for s, (c, _) in enumerate(pivots)}
    residual = (tuple(j for j in range(M.num_cols) if j not in step), block)
    held = sorted({j for row in block for j in row})
    a = [[row.get(j, 0) for j in held] for row in block]
    if len(held) > len(block):  # tall: the transpose has the same divisors
        a = [list(col) for col in zip(*a)]
    width = min(len(held), len(block))
    divisors = [1] * len(pivots) + _dense_smith(_echelon(a), [[]] * width)
    divisors += [0] * (M.num_cols - len(divisors))
    return SmithForm(divisors, tuple(pivots), step, residual)
