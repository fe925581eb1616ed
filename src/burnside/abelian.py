"""Finite abelian groups in invariant-factor form and their characters.

A group is a chain of factors ``n_1 | n_2 | ... | n_r`` (each ``>= 2``;
the empty chain is the trivial group).  Since the ground field is assumed
to contain enough roots of unity, the character group is identified with
the group itself: a character is an integer vector with entry ``i``
reduced modulo ``n_i``.  The dual maps between the character groups of
abelian subgroups of a finite group (the normalizer's action, transport
along conjugation, restriction) are matrices on these vectors.  The wedge
test costs about r^3 steps in the rank r, which ``MAX_WEDGE_RANK`` bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mod, neg
from typing import TYPE_CHECKING

from .errors import BurnsideError, InputError, SizeError
from .errors import is_int_rows, load_json

if TYPE_CHECKING:
    from .groups import SubgroupRef

# largest rank the wedge test takes: its triangularizations cost about r^3
# steps, and a random generating pair of (Z/2)^256 takes 1.3 s
MAX_WEDGE_RANK = 256


@dataclass(frozen=True)
class AbelianGroup:
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for n in facs:
            if type(n) is not int:  # booleans too, as in the JSON checks
                raise InputError(f"invariant factor {n!r} is not an integer")
            if n < 2:
                raise InputError(f"invariant factor {n} < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise InputError(f"invariant factor {a} does not divide {b}")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Place values of the character code: a character's position in
        ``elements()`` is the sum of x_i strides_i."""
        facs = self.invariant_factors
        return tuple(math.prod(facs[i + 1 :]) for i in range(self.rank))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    @cached_property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        """The rows n_i e_i, whose span is the kernel of Z^r onto the group."""
        r = self.rank
        return tuple(
            (0,) * i + (n,) + (0,) * (r - 1 - i)
            for i, n in enumerate(self.invariant_factors)
        )

    def reduce(self, vec) -> tuple[int, ...]:
        vec, facs = tuple(vec), self.invariant_factors
        if len(vec) != len(facs):
            raise InputError(f"character has length {len(vec)}, expected {len(facs)}")
        for x in vec:
            if type(x) is not int:
                raise InputError(f"character entry {x!r} is not an integer")
        return tuple(map(mod, vec, facs))

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(x + y for x, y in zip(self.reduce(a), self.reduce(b)))

    def neg(self, a) -> tuple[int, ...]:
        return tuple(map(mod, map(neg, self.reduce(a)), self.invariant_factors))

    def elements(self):
        """All elements in deterministic mixed-radix order."""
        for tup in itertools.product(*(range(n) for n in self.invariant_factors)):
            yield tup

    def subgroup_generated(self, gens) -> frozenset:
        """The span of ``gens`` by BFS: the oracle of tests and benchmarks."""
        gens = [self.reduce(g) for g in gens]
        facs = self.invariant_factors
        seen = {self.zero()}
        frontier = [self.zero()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((x + y) % n for x, y, n in zip(cur, g, facs))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    @staticmethod
    def from_json_obj(data) -> "AbelianGroup":
        if not isinstance(data, dict) or "invariant_factors" not in data:
            raise InputError('group JSON must contain "invariant_factors"')
        facs = data["invariant_factors"]
        if not is_int_rows([facs]):
            raise InputError('"invariant_factors" must be a list of integers')
        return AbelianGroup(tuple(facs))

    @staticmethod
    def from_json(text: str) -> "AbelianGroup":
        return AbelianGroup.from_json_obj(load_json(text, "group JSON"))


def _pivots(rows, moduli) -> list[int]:
    """|pivot| of each column once Euclid's row steps bring the integer
    ``rows`` to echelon form, 0 where a column has none.  A step reduces
    the row it makes modulo ``moduli``, one per column, so no entry grows.

    Rows in [0, m_k] that include the relations m_k e_k span Z^r exactly
    when every pivot is 1: a relation is untouched until its own column,
    and a reduction subtracts those past the pivot column (on the others
    it is the identity).  For r rows and all moduli equal to m, the
    product of the pivots is +-det mod m.
    """
    pivots = []
    for c in range(len(moduli)):
        pivot, rest = None, []
        for row in rows:
            if pivot is None and row[c]:
                pivot = row
                continue
            while row[c]:  # Euclid on the pair leaves the gcd in the pivot
                q = row[c] // pivot[c]
                row = [(x - q * y) % m for x, y, m in zip(row, pivot, moduli)]
                if row[c]:
                    pivot, row = row, pivot
            rest.append(row)
        pivots.append(0 if pivot is None else abs(pivot[c]))
        rows = rest
    return pivots


def generates_reduced(A: AbelianGroup, beta) -> bool:
    """Whether the reduced characters in ``beta`` generate all of ``A``:
    whether they span Z^r together with the relations n_i e_i.  Nothing
    is validated; callers pass characters already of length r."""
    return _pivots([*beta, *A.relations], A.invariant_factors) == [1] * A.rank


def wedge_equivalent(A: AbelianGroup, beta, gamma) -> bool:
    """Compare top wedge powers of two full-rank generating tuples up to sign.

    Both tuples must have length equal to the rank of ``A`` and generate it;
    the top exterior power of ``A`` is cyclic of order ``n_1``, and the class
    of a tuple there is the determinant of integer lifts taken modulo
    ``n_1``.  Classes are compared up to sign, so the class is read as the
    product of the pivots of an echelon form modulo ``n_1``.  The answer
    is invariant under reordering either tuple.
    """
    d = A.rank
    if d > MAX_WEDGE_RANK:
        raise SizeError(f"wedge comparison of rank {d} exceeds bound {MAX_WEDGE_RANK}")
    beta = [A.reduce(b) for b in beta]
    gamma = [A.reduce(c) for c in gamma]
    if len(beta) != d or len(gamma) != d:
        raise InputError(f"wedge comparison needs tuples of length rank = {d}")
    if not generates_reduced(A, beta) or not generates_reduced(A, gamma):
        raise InputError("wedge comparison requires generating tuples")
    if d == 0:
        return True
    n1 = A.invariant_factors[0]
    db, dg = (math.prod(_pivots(chars, (n1,) * d)) for chars in (beta, gamma))
    return (db - dg) % n1 == 0 or (db + dg) % n1 == 0


def apply_dual(matrix, factors, char) -> tuple[int, ...]:
    """Apply a dual-map matrix to a character vector (row i mod factors[i])."""
    return tuple(
        sum(m * a for m, a in zip(row, char)) % n
        for row, n in zip(matrix, factors)
    )


def transport_characters(src: SubgroupRef, dst: SubgroupRef, g: int) -> list[list[int]]:
    """Dual-map matrix carrying characters of ``src`` to ``dst``, a subgroup
    of ``g src g^-1`` in ``src.group``; with g the identity it is restriction.

    The image of a character ``a`` of src is ``a o conj_{g^-1}`` on dst:
    row i holds its coefficients at dst's basis element b_i, read from the
    src coordinates of g^-1 b_i g and scaled from src's orders to dst's.
    """
    G = src.group
    ginv = G.inv(g)
    n_src = src.structure.invariant_factors
    n_dst = dst.structure.invariant_factors
    mat = []
    for b, m in zip(dst.basis, n_dst):
        row = []
        for c, n in zip(src.coords(G.conj(ginv, b)), n_src):
            if c * m % n:
                raise BurnsideError("dual map does not respect orders")
            row.append(c * m // n % m)
        mat.append(row)
    return mat
