"""Exact linear algebra over the integers.

Smith and Hermite normal forms with unimodular transforms, computed with
plain Python ints so intermediate coefficient growth is harmless.  The
Hermite form is pinned to a fixed convention (row style, positive pivots,
entries above a pivot reduced into ``[0, pivot)``) so that two matrices
span the same row lattice iff their Hermite forms are identical.
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

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix.from_rows([[0] * n for _ in range(m)], n)

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def diagonal(self) -> list[int]:
        return [
            self.entries[i][i] for i in range(min(self.num_rows, self.num_cols))
        ]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.num_cols != other.num_rows:
            raise InputError("matrix dimension mismatch in product")
        cols = list(zip(*other.entries)) if other.entries else []
        rows = []
        for row in self.entries:
            rows.append(
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                if cols
                else [0] * other.num_cols
            )
        return IntMatrix.from_rows(rows, other.num_cols)


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
    rs, rd = a[src], a[dst]
    for c in range(len(rd)):
        rd[c] -= q * rs[c]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] -= q * row[src]


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return ``(S, U, V)`` with ``S = U @ M @ V`` in Smith normal form.

    ``U`` and ``V`` are unimodular; ``S`` is diagonal with nonnegative
    entries ``d_1 | d_2 | ...`` and zeros trailing the nonzero entries.
    """
    m, n = M.num_rows, M.num_cols
    a = M.to_lists()
    u = IntMatrix.identity(m).to_lists()
    v = IntMatrix.identity(n).to_lists()
    t = 0
    while True:
        # locate a pivot of minimal absolute value in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(a, t, piv[0])
        _swap_rows(u, t, piv[0])
        _swap_cols(a, t, piv[1])
        _swap_cols(v, t, piv[1])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            dirty = False
            for r in range(m):
                if r != t and a[r][t]:
                    q = a[r][t] // a[t][t]
                    _add_row(a, r, t, q)
                    _add_row(u, r, t, q)
                    if a[r][t]:
                        _swap_rows(a, t, r)
                        _swap_rows(u, t, r)
                        dirty = True
            if dirty:
                continue
            for c in range(n):
                if c != t and a[t][c]:
                    q = a[t][c] // a[t][t]
                    _add_col(a, c, t, q)
                    _add_col(v, c, t, q)
                    if a[t][c]:
                        _swap_cols(a, t, c)
                        _swap_cols(v, t, c)
                        dirty = True
            if dirty:
                continue
            # force the divisibility chain: fold in any non-multiple below
            pivot = a[t][t]
            fixed = True
            for r in range(t + 1, m):
                if any(x % pivot for x in a[r][t + 1 :]):
                    _add_row(a, t, r, -1)
                    _add_row(u, t, r, -1)
                    fixed = False
                    break
            if fixed:
                break
        t += 1
    S = IntMatrix.from_rows(a, n)
    return S, IntMatrix.from_rows(u, m), IntMatrix.from_rows(v, n)


def cokernel_invariants(M: IntMatrix) -> tuple[int, list[int]]:
    """Structure of Z^cols modulo the row space: (free rank, torsion factors)."""
    S, _, _ = smith_normal_form(M)
    diag = S.diagonal()
    nonzero = [d for d in diag if d]
    return M.num_cols - len(nonzero), [d for d in nonzero if d > 1]


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite normal form, zero rows removed."""
    m, n = M.num_rows, M.num_cols
    a = M.to_lists()
    r = 0
    for c in range(n):
        while True:
            live = [i for i in range(r, m) if a[i][c]]
            if len(live) <= 1:
                break
            i = min(live, key=lambda k: (abs(a[k][c]), k))
            for k in live:
                if k != i:
                    q = a[k][c] // a[i][c]
                    _add_row(a, k, i, q)
        live = [i for i in range(r, m) if a[i][c]]
        if not live:
            continue
        _swap_rows(a, r, live[0])
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for k in range(r):
            q = a[k][c] // a[r][c]
            _add_row(a, k, r, q)
        r += 1
    return IntMatrix.from_rows(a[:r], n)


def row_space_equal(M1: IntMatrix, M2: IntMatrix) -> bool:
    """Whether the two matrices span the same sublattice of Z^cols."""
    if M1.num_cols != M2.num_cols:
        raise InputError("row_space_equal requires equal column counts")
    return hermite_normal_form(M1) == hermite_normal_form(M2)
