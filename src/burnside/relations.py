"""The blow-up relation engine.

Expands a symbol by the multi-index blow-up move (enumerating admissible
index sets with their unique admissible coset), the two-term move being its
case j = 2, and generates the relation rows of a tuple-group presentation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .abelian import AbelianGroup, apply_dual, transport_characters
from .errors import InputError, SizeError
from .symbols import Symbol, SymbolSum, combine, construction_a
from .zlinalg import SparseMatrix

# Relation-matrix work in cells.  bng prices the candidate multisets as if
# dense, plus count**2, though nothing that size is built; relation_rows
# prices position sets, n cells each, more than the sub-multisets it visits
MAX_RELATION_CELLS = 10**7

VANISHED_NONE = "none"
VANISHED_B1 = "B1"
VANISHED_EQUAL_WEIGHTS = "equal_weights"
VANISHED_COSET = "coset_condition"


@dataclass(frozen=True)
class ExpansionReport:
    """Result of one blow-up expansion.

    ``theta1``/``theta2`` hold the canonicalized sums; ``raw_theta1`` and
    ``raw_theta2`` keep the symbols exactly as the defining relation
    produces them, before any conjugation normalization.
    """

    theta1: SymbolSum
    theta2: SymbolSum
    raw_theta1: tuple[Symbol, ...]
    raw_theta2: tuple[Symbol, ...]
    vanished_by: str

    def total(self) -> SymbolSum:
        return combine(self.theta1, self.theta2, 1, 1)

    def to_json_obj(self):
        return {
            "theta1": self.theta1.to_json_obj(),
            "theta2": self.theta2.to_json_obj(),
            "vanished_by": self.vanished_by,
        }


def _has_inverse_pair(A: AbelianGroup, beta) -> bool:
    for i, a in enumerate(beta):
        neg = A.neg(a)
        rest = beta[:i] + beta[i + 1 :]
        if neg in rest:
            return True
    return False


def expand_b2(s: Symbol, i: int, j: int) -> ExpansionReport:
    """Blow-up expansion of a symbol at the weight pair ``(i, j)``: the
    multi-index relation at j = 2 on the weights ``(beta_i, beta_j, rest)``.

    The index sets {0} and {1} give ``raw_theta1``, the terms
    ``(beta_i, beta_j - beta_i, rest)`` and ``(beta_j, beta_i - beta_j,
    rest)``; {0, 1} gives ``raw_theta2``, on the kernel of the difference.
    """
    beta = s.beta
    if not (0 <= i < len(beta)) or not (0 <= j < len(beta)) or i == j:
        raise InputError(f"invalid weight positions ({i}, {j})")
    rest = tuple(b for k, b in enumerate(beta) if k not in (i, j))
    terms = ([], [])
    for I, term in _blowup_terms(s, (beta[i], beta[j]) + rest, 2):
        terms[len(I) - 1].append(term)
    raw_theta1, raw_theta2 = map(tuple, terms)

    if not raw_theta1:
        vanished = VANISHED_EQUAL_WEIGHTS
    elif not raw_theta2:
        vanished = VANISHED_COSET
    elif _has_inverse_pair(s.subgroup.structure, beta):
        vanished = VANISHED_B1
    else:
        vanished = VANISHED_NONE
    return ExpansionReport(
        theta1=SymbolSum.of(*raw_theta1),
        theta2=SymbolSum.of(*raw_theta2),
        raw_theta1=raw_theta1,
        raw_theta2=raw_theta2,
        vanished_by=vanished,
    )


def _blowup_terms(s: Symbol, beta, j: int):
    """``(I, term)`` for each admissible index set I of the first ``j`` of
    the weights ``beta`` of ``s.subgroup``, in increasing size, the term as
    the relation produces it, before canonicalization.

    I is admissible when beta[i0] + S, i0 = min I and S the span of beta[i]
    - beta[i0] for i in I, avoids zero and the other weights of the first
    ``j``, and S misses the rest.  By duality x is in S exactly when it
    vanishes on S^perp, the joint kernel the term lives on: I is admissible
    exactly when no weight of its term, restricted there, is zero.
    """
    H = s.subgroup
    facs = H.structure.invariant_factors
    # weights are reduced characters: subtract without validation
    diff = [
        [tuple((x - y) % q for x, y, q in zip(b, a, facs)) for b in beta[:j]]
        for a in beta[:j]
    ]
    for size in range(1, j + 1):
        for I in itertools.combinations(range(j), size):
            d = diff[I[0]]
            new_beta = (beta[I[0]], *(d[i] for i in range(j) if i not in I), *beta[j:])
            # a singleton index set blows nothing down: keep the label
            Hbar, Kbar = H, s.field_label
            if size > 1:
                diffs = [d[i] for i in I[1:]]
                Hbar, Kbar = construction_a(s.group, H, s.field_label, diffs)
                res = transport_characters(s.group, H, Hbar, s.group.identity)
                facs_bar = Hbar.structure.invariant_factors
                new_beta = tuple(apply_dual(res, facs_bar, b) for b in new_beta)
            if all(any(b) for b in new_beta):
                yield I, Symbol(
                    group=s.group,
                    subgroup=Hbar,
                    field_label=Kbar,
                    beta=new_beta,
                    ambient_n=s.ambient_n,
                )


def expand_prop46(s: Symbol, j: int) -> SymbolSum:
    """Multi-index expansion acting on the first ``j`` weights of a symbol:
    the canonical terms of every admissible index set, with multiplicity."""
    if not (2 <= j <= len(s.beta)):
        raise InputError(f"j = {j} out of range for {len(s.beta)} weights")
    return SymbolSum((term, 1) for _, term in _blowup_terms(s, s.beta, j))


def relation_rows(P, j_max: int, j_min: int = 2) -> SparseMatrix:
    """Sparse relation matrix over the generators of a tuple-group presentation.

    ``P`` supplies the dimension ``n``, the coded generators and their table.
    One deduplicated row per generator, j from ``j_min`` to ``j_max`` and
    sub-multiset of j of its characters: the generator minus the sum of its
    transformed tuples, columns in generator order, rows sorted as tuples of
    ``(column, value)`` items.  Before any is built, the work of every j
    from 2 to ``j_max`` is bounded by ``n`` cells per generator and
    position set, more than the sub-multisets visited.
    """
    n = P.n
    if not (2 <= j_min <= j_max <= n):
        raise InputError(f"need 2 <= j_min = {j_min} <= j_max = {j_max} <= n = {n}")
    gens = P.generator_codes
    cells = 0
    for j in range(2, j_max + 1):
        cells += len(gens) * math.comb(n, j) * n
        if cells > MAX_RELATION_CELLS:
            raise SizeError(
                "the relation rows visit more cells than the bound "
                f"{MAX_RELATION_CELLS}"
            )
    _, index, minus = P.coded_table
    rows = set()
    for gen, k in index.items():
        for j in range(j_min, j_max + 1):
            for head in set(itertools.combinations(gen, j)):
                tail = list(gen)
                for a in head:
                    tail.remove(a)
                row = {k: 1}
                for t, a_i in enumerate(head):
                    if t and head[t - 1] == a_i:  # heads are sorted
                        continue
                    transformed = list(map(minus[a_i].__getitem__, head))
                    transformed[t] = a_i
                    transformed += tail
                    transformed.sort()
                    c = index[tuple(transformed)]
                    row[c] = row.get(c, 0) - 1
                if not row[k]:  # the generator was among its transforms
                    del row[k]
                if row:
                    rows.add(tuple(sorted(row.items())))
    return SparseMatrix(tuple(sorted(rows)), len(gens))
