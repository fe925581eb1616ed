"""The tuple group of a finite abelian group at a fixed dimension.

Generators are size-``n`` multisets of characters generating the group
(zero entries allowed); the presentation uses the two-position relation
rows, kept sparse, which suffice.  One Smith elimination serves both
queries: the structure reads its divisors alone, and a class gets a unique
normal form, the sum of its generators' coordinates, each read once from
that elimination's record by a forward solve, so equality is a tuple
comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .abelian import AbelianGroup
from .errors import InputError, SizeError
from .relations import MAX_RELATION_CELLS, relation_rows
from .symbols import Symbol
from .zlinalg import SmithForm, SparseMatrix, smith_normal_form


def _maximal_masks(A: AbelianGroup) -> list[int]:
    """Per character code, bit b set when it is in the kernel of the b-th line
    a -> sum c_i a_i of Hom(A, Z/p), p prime (first nonzero c_i = 1): these are
    the maximal subgroups, so characters generate A exactly when masks AND to 0."""
    facs, e, masks, bit = A.invariant_factors, A.exponent, [0] * A.order, 1
    for p in (p for p in range(2, e + 1) if e % p == 0 and all(p % d for d in range(2, p))):
        for coef in itertools.product(*(range(p if q % p == 0 else 1) for q in facs)):
            if next(filter(None, coef), 0) == 1:  # one coefficient vector a line
                res = [0]  # the line's values in code order, last entry fastest
                for q, c in zip(facs, coef):
                    res = [(x + c * y) % p for x in res for y in range(q)]
                masks = [m if x else m | bit for m, x in zip(masks, res)]
                bit <<= 1
    return masks


def enumerate_generators(A: AbelianGroup, n: int) -> list[tuple[int, ...]]:
    """The size-``n`` multisets of characters generating ``A``, as sorted
    tuples of codes, positions in the lexicographic ``A.elements()``, so in
    the order of sorted characters.  The candidates' cells (a row per
    position pair, a column, a square block) are bounded first, by a count
    stopped once its square alone is over the bound."""
    if n < 1:
        raise InputError(f"dimension n = {n} must be positive")
    order = A.order
    count, m = 1, min(n, order - 1)
    for k in range(1, m + 1):
        count = count * (order - 1 + n - m + k) // k
        if count > math.isqrt(MAX_RELATION_CELLS):
            break
    if count * count * (math.comb(n, 2) + 1) > MAX_RELATION_CELLS:
        raise SizeError(
            "the candidate multisets imply more relation-matrix cells than "
            f"the bound {MAX_RELATION_CELLS}"
        )
    if A.rank > n:  # A needs rank-many generators: no mask is built
        return []
    masks = _maximal_masks(A)
    # prefixes (codes, AND of their masks, least next code), extended in order
    prefixes = [((), -1, 0)]
    for _ in range(n - 1):
        prefixes = [(c + (k,), m & masks[k], k) for c, m, s in prefixes for k in range(s, order)]
    return [c + (k,) for c, m, s in prefixes for k in range(s, order) if not m & masks[k]]


@dataclass(eq=False)
class BnGPresentation:
    """Generators and sparse relation rows of the tuple group, cached."""

    A: AbelianGroup
    n: int

    @cached_property
    def generator_codes(self) -> list[tuple[int, ...]]:
        return enumerate_generators(self.A, self.n)

    @cached_property
    def generators(self) -> list[tuple]:
        chars = list(self.A.elements())
        return [tuple(map(chars.__getitem__, c)) for c in self.generator_codes]

    @cached_property
    def generator_index(self) -> dict[tuple[int, ...], int]:
        """Coded generator -> column, built once for the relation rows and
        the class queries."""
        return {gen: k for k, gen in enumerate(self.generator_codes)}

    @cached_property
    def difference_table(self) -> list[list[int]]:
        """``minus[a][x]`` is the code of x - a, its mixed-radix digits the
        per-factor differences: |A|^2 codes, built for the relation rows alone."""
        A, minus = self.A, []
        for a in A.elements():
            res = [0]  # the codes in code order, last digit fastest
            for y, q, w in zip(a, A.invariant_factors, A.strides):
                res = [r + (x - y) % q * w for r in res for x in range(q)]
            minus.append(res)
        return minus

    @cached_property
    def relation_matrix(self) -> SparseMatrix:
        if self.n <= 1:  # n < 1 fails in the enumeration, before any row
            return SparseMatrix((), len(self.generator_codes))
        return relation_rows(self, 2)

    @cached_property
    def smith_form(self) -> SmithForm:
        """The elimination's record, a column per generator, and its readings."""
        return smith_normal_form(self.relation_matrix)

    def structure(self) -> tuple[int, list[int]]:
        divisors = self.smith_form.divisors
        return divisors.count(0), [d for d in divisors if d > 1]

    def coerce_generator(self, multiset) -> int:
        """The column of a generator given as a multiset of characters, each
        reduced and coded as the sum of x_i strides_i."""
        A, strides = self.A, self.A.strides
        codes = [sum(map(mul, A.reduce(c), strides)) for c in multiset]
        if len(codes) != self.n:
            raise InputError(f"tuple has {len(codes)} characters, not n = {self.n}")
        k = self.generator_index.get(tuple(sorted(codes)))
        if k is None:
            chars = tuple(sorted(map(A.reduce, multiset)))
            raise InputError(f"tuple {chars} is not a generator (must generate A)")
        return k


@dataclass(frozen=True)
class BnGClass:
    """Normal-form coordinates of a class: free part exact, torsion reduced."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def to_json_obj(self):
        return {"free": list(self.free), "torsion": list(self.torsion)}


def _terms(P: BnGPresentation, x) -> list[tuple[int, int]]:
    """``(column, coefficient)`` per term of ``x``, checked, with no
    elimination."""
    items = x.items() if isinstance(x, dict) else x
    terms = [(P.coerce_generator(gen), coeff) for gen, coeff in items]
    for _, coeff in terms:
        if type(coeff) is not int:  # booleans too, as in the JSON checks
            raise InputError(f"coefficient {coeff!r} is not an integer")
    return terms


def _class(P: BnGPresentation, terms) -> BnGClass:
    """Normal form of checked terms, read from the presentation's form."""
    F = P.smith_form
    # the sum of the generators' coordinates, each built on first use
    image = [0] * len(F.orders)
    for k, coeff in terms:
        row = F.image(k)
        image = [y + coeff * v for y, v in zip(image, row)]
    free = tuple(y for y, d in zip(image, F.orders) if d == 0)
    torsion = tuple(y % d for y, d in zip(image, F.orders) if d)
    return BnGClass(free=free, torsion=torsion)


def reduce_class(P: BnGPresentation, x) -> BnGClass:
    """Normal form of an integer combination of generators.

    ``x`` maps generator multisets to coefficients.  Two combinations get
    the same normal form exactly when they differ by a relation row.
    """
    return _class(P, _terms(P, x))


def equal_classes(P: BnGPresentation, x, y) -> bool:
    """Whether two combinations of generators define the same class; both
    are checked before the elimination."""
    x, y = _terms(P, x), _terms(P, y)
    return _class(P, x) == _class(P, y)


def project_symbol(s: Symbol, P: BnGPresentation) -> dict:
    """Image of a symbol in the tuple group, as generator coefficients.

    Symbols over a proper subgroup map to zero; full-subgroup symbols map
    to the algebraic-closure degree times the zero-padded weight tuple.
    """
    G = s.group
    if not G.is_abelian:
        raise InputError("projection is defined for abelian ambient groups")
    if s.ambient_n != P.n:
        raise InputError(
            f"symbol dimension {s.ambient_n} != presentation dimension {P.n}"
        )
    if len(s.subgroup.elements) != G.order:
        return {}
    if s.subgroup.structure.invariant_factors != P.A.invariant_factors:
        raise InputError(
            "symbol character group does not match the presentation group"
        )
    coeff = s.field_label.alg_closure_degree
    padded = tuple(
        sorted(s.beta + (P.A.zero(),) * (P.n - len(s.beta)))
    )
    return {padded: coeff}


def project_sum(x, P: BnGPresentation) -> dict:
    """Image of a symbol sum: sum of the projections of its terms."""
    out: dict = {}
    for sym, coeff in x.terms.items():
        for gen, c in project_symbol(sym, P).items():
            out[gen] = out.get(gen, 0) + coeff * c
    return out
