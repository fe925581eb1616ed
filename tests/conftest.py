"""Shared fixtures and independent cross-check helpers."""

import itertools
import math

import pytest

from burnside import AbelianGroup, Atom, FiniteGroup, IntMatrix, Symbol


def laplace_det(rows):
    """Cofactor-expansion determinant, independent of the library's routine."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def minor_gcd(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if every minor vanishes)."""
    g = 0
    rows = M.to_lists()
    for ri in itertools.combinations(range(M.num_rows), k):
        for ci in itertools.combinations(range(M.num_cols), k):
            sub = [[rows[r][c] for c in ci] for r in ri]
            g = math.gcd(g, laplace_det(sub))
            if g == 1:
                return 1
    return g


def matmul(a, b):
    """Product of two integer matrices given as row lists (textbook sums)."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


@pytest.fixture(scope="session")
def d8():
    """Dihedral group of order 8 on 4 points: rho = 4-cycle, sigma = (0 2)."""
    return FiniteGroup.from_permutations(4, [[1, 2, 3, 0], [2, 1, 0, 3]])


@pytest.fixture(scope="session")
def s4():
    """Symmetric group on 4 points: a 4-cycle and a transposition."""
    return FiniteGroup.from_permutations(4, [[1, 2, 3, 0], [1, 0, 2, 3]])


@pytest.fixture(scope="session")
def a5():
    """Alternating group on 5 points: a 3-cycle and a 5-cycle."""
    return FiniteGroup.from_permutations(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])


def conjugate_by_scan(G, g, elems) -> tuple:
    """g elems g^-1 as a sorted tuple, straight from the Cayley table."""
    tab = G.cayley
    ginv = next(x for x in range(G.order) if tab[g][x] == G.identity)
    return tuple(sorted(tab[tab[g][h]][ginv] for h in elems))


def normalizer_by_scan(G, elems) -> tuple:
    """Every g with g elems g^-1 = elems, by a scan of the whole group."""
    key = tuple(sorted(elems))
    return tuple(g for g in range(G.order) if conjugate_by_scan(G, g, key) == key)


def least_conjugator_by_scan(G, elems, target) -> int:
    """The least g with g elems g^-1 = target, by a scan of the whole group."""
    return min(g for g in range(G.order) if conjugate_by_scan(G, g, elems) == target)


@pytest.fixture(scope="session")
def d8_parts(d8):
    rho, sigma = 1, 2
    rho2 = d8.mul(rho, rho)
    H = d8.subgroup(d8.closure([rho2, sigma]))
    return {"rho": rho, "sigma": sigma, "rho2": rho2, "H": H}


def full_group_symbol(factors, beta, n, trdeg=None, deg=1):
    """Symbol over the full subgroup of an abelian ambient group."""
    G = FiniteGroup.from_invariant_factors(factors)
    full = G.full_subgroup()
    if trdeg is None:
        trdeg = n - len(beta)
    K = Atom(name="k", trdeg=trdeg, alg_closure_degree=deg)
    return Symbol(
        group=G, subgroup=full, field_label=K, beta=tuple(beta), ambient_n=n
    )


def generating_multisets(factors, size):
    """All generating multisets of nonzero characters of the given size."""
    A = AbelianGroup(tuple(factors))
    nonzero = [a for a in A.elements() if any(a)]
    return [
        beta
        for beta in itertools.combinations_with_replacement(nonzero, size)
        if len(A.subgroup_generated(beta)) == A.order
    ]
