"""Exact linear algebra over the integers.

Smith divisors with a unimodular column transform, computed with plain
Python ints so intermediate coefficient growth is harmless.  Row lattices
are compared through their Smith divisors alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix; ``entries`` is a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]
    num_cols: int

    @staticmethod
    def from_rows(rows, num_cols=None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            if num_cols is None:
                num_cols = len(data[0])
            if any(len(row) != num_cols for row in data):
                raise InputError("ragged rows in matrix input")
        elif num_cols is None:
            num_cols = 0
        return IntMatrix(data, num_cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], n
        )

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def det(M: IntMatrix) -> int:
    """Determinant of a square matrix (fraction-free Bareiss elimination)."""
    if M.num_rows != M.num_cols:
        raise InputError("determinant requires a square matrix")
    n = M.num_rows
    if n == 0:
        return 1
    a = M.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def smith_normal_form(M: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Return ``(divisors, V)``: the Smith divisors of ``M``, one per column
    (``d_1 | d_2 | ...`` positive, then zeros for the free part), and a
    unimodular column transform ``V``.  The rows of the product ``M V``
    span exactly the multiples of ``divisors[k]`` in each column ``k``.
    The row transform is not built.
    """
    m, n = M.num_rows, M.num_cols
    a = M.to_lists()
    # the columns of V, so that a column operation is a row operation here
    vcols = IntMatrix.identity(n).to_lists()
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
    divisors = [a[k][k] for k in range(t)] + [0] * (n - t)
    return divisors, IntMatrix.from_rows(zip(*vcols), n)


def row_space_equal(M1: IntMatrix, M2: IntMatrix) -> bool:
    """Whether the two matrices span the same sublattice of Z^cols.

    The lattices L1 and L2 are equal exactly when M1, M2 and their stacked
    rows have the same Smith divisors: Z^cols / L1 maps onto
    Z^cols / (L1 + L2), and a surjection between isomorphic finitely
    generated abelian groups is an isomorphism.  When one row set contains
    the other, the stacked rows span the larger lattice, so its Smith form
    is not computed.  Equal divisors alone would not do: [[2, 0], [0, 1]]
    and [[1, 0], [0, 2]] share them.
    """
    if M1.num_cols != M2.num_cols:
        raise InputError("row_space_equal requires equal column counts")
    divisors, _ = smith_normal_form(M1)
    if smith_normal_form(M2)[0] != divisors:
        return False
    rows1, rows2 = set(M1.entries), set(M2.entries)
    if rows1 <= rows2 or rows2 <= rows1:
        return True
    stacked = IntMatrix(M1.entries + M2.entries, M1.num_cols)
    return smith_normal_form(stacked)[0] == divisors
