"""Shared fixtures and independent cross-check helpers."""

import functools
import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from burnside import (
    AbelianGroup,
    Atom,
    BnGPresentation,
    ConstrA,
    FiniteGroup,
    SparseMatrix,
    Symbol,
    SymbolSum,
    expand_b2,
    smith_normal_form,
)
from burnside.abelian import generates_reduced


def generates(A, beta) -> bool:
    """Whether the characters in ``beta`` generate all of ``A``, each
    validated and reduced first (``generates_reduced`` leaves that to its
    callers)."""
    return generates_reduced(A, [A.reduce(b) for b in beta])


def group_json(A) -> str:
    """The compact JSON of an abelian group, as the command line reads it."""
    return json.dumps({"invariant_factors": list(A.invariant_factors)}, separators=(",", ":"))


def full_subgroup(G):
    """The subgroup of every element of ``G``."""
    return G.subgroup(range(G.order))


def apply_b1(x):
    """``x`` without every symbol whose weights hold a character and its
    inverse (at two different positions)."""

    def inverse_pair(sym):
        A, beta = sym.subgroup.structure, sym.beta
        return any(A.neg(a) in beta[:i] + beta[i + 1 :] for i, a in enumerate(beta))

    return SymbolSum({s: c for s, c in x.terms.items() if not inverse_pair(s)})


def row_space_equal(M1, M2) -> bool:
    """Whether two sparse matrices span the same sublattice of Z^cols: the
    oracle of the library's membership test, from Smith divisors alone.

    The lattices L1 and L2 are equal exactly when M1, M2 and their stacked
    rows have the same Smith divisors: Z^cols / L1 maps onto
    Z^cols / (L1 + L2), and a surjection between isomorphic finitely
    generated abelian groups is an isomorphism.  When one row set contains
    the other, the stacked rows span the larger lattice, so its Smith form
    is not computed.  Equal divisors alone would not do: [[2, 0], [0, 1]]
    and [[1, 0], [0, 2]] share them.
    """
    assert M1.num_cols == M2.num_cols, "row_space_equal requires equal column counts"
    divisors = smith_normal_form(M1).divisors
    if smith_normal_form(M2).divisors != divisors:
        return False
    rows1, rows2 = set(M1.entries), set(M2.entries)
    if rows1 <= rows2 or rows2 <= rows1:
        return True
    stacked = SparseMatrix(M1.entries + M2.entries, M1.num_cols)
    return smith_normal_form(stacked).divisors == divisors


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


def sparse_matrix(rows, num_cols=None) -> SparseMatrix:
    """The sparse matrix of dense integer rows; ``num_cols`` is needed only
    when there are no rows."""
    rows = [list(row) for row in rows]
    if num_cols is None:
        num_cols = len(rows[0]) if rows else 0
    assert all(len(row) == num_cols for row in rows), "ragged rows"
    items = (tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
    return SparseMatrix(tuple(items), num_cols)


def dense_rows(M) -> list[list[int]]:
    """Full-width rows of a sparse matrix."""
    rows = [[0] * M.num_cols for _ in M.entries]
    for row, items in zip(rows, M.entries):
        for j, x in items:
            row[j] = x
    return rows


def minor_gcd(M, k: int) -> int:
    """gcd of all k x k minors (0 if every minor vanishes)."""
    g = 0
    rows = dense_rows(M)
    for ri in itertools.combinations(range(M.num_rows), k):
        for ci in itertools.combinations(range(M.num_cols), k):
            sub = [[rows[r][c] for c in ci] for r in ri]
            g = math.gcd(g, laplace_det(sub))
            if g == 1:
                return 1
    return g


def dense_smith_reference(M) -> list[int]:
    """Smith divisors from the dense pivot loop alone, on full-width rows.

    Every step scans for the first pivot of least absolute value, clears
    its row and column, and folds in a row the pivot does not divide.  The
    library's divisors must match it.
    """
    m, n = M.num_rows, M.num_cols
    a = dense_rows(M)

    def add_row(rows, dst, src, q):
        rows[dst] = [x - q * y for x, y in zip(rows[dst], rows[src])]

    def add_col(rows, dst, src, q):
        for row in rows:
            row[dst] -= q * row[src]

    def swap(rows, i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def swap_cols(rows, i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
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
        swap(a, t, piv[0])
        swap_cols(a, t, piv[1])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for r in range(m):
                if r != t and a[r][t]:
                    add_row(a, r, t, a[r][t] // a[t][t])
                    if a[r][t]:
                        swap(a, t, r)
                        dirty = True
            if dirty:
                continue
            for c in range(n):
                if c != t and a[t][c]:
                    add_col(a, c, t, a[t][c] // a[t][t])
                    if a[t][c]:
                        swap_cols(a, t, c)
                        dirty = True
            if dirty:
                continue
            pivot = a[t][t]
            for r in range(t + 1, m):
                if pivot > 1 and any(x % pivot for x in a[r][t + 1 :]):
                    add_row(a, t, r, -1)
                    break
            else:
                break
        t += 1
    return [a[k][k] for k in range(t)] + [0] * (n - t)


def unit_pivot_reference(M) -> tuple:
    """The unit-pivot phase of the Smith elimination by its documented rule,
    re-scanning every row at every step: ``(pivots, step, residual)`` as
    the library records them.

    Each step takes the row holding a +-1 with the least ``(len(row),
    index)``, and in it the unit whose column the fewest rows hold, ties by
    column.  The row is multiplied by the sign of that unit, the column is
    cleared from every other row, and the row is recorded without the
    column and dropped.  Entries keep their first position in a row, and a
    new one goes last.
    """
    rows = [dict(row) for row in M.entries]
    pivots = []
    while True:
        with_unit = [(len(row), i) for i, row in enumerate(rows) if 1 in map(abs, row.values())]
        if not with_unit:
            break
        p = min(with_unit)[1]
        held = {j: sum(j in row for row in rows) for j in rows[p]}
        c = min((held[j], j) for j, x in rows[p].items() if abs(x) == 1)[1]
        sign = rows[p][c]
        pivot = {j: sign * x for j, x in rows[p].items() if j != c}
        rows[p] = {}
        for row in rows:
            if c in row:
                q = row.pop(c)
                for j, x in pivot.items():
                    row[j] = row.get(j, 0) - q * x
                    if not row[j]:
                        del row[j]
        pivots.append((c, tuple(pivot.items())))
    step = {c: s for s, (c, _) in enumerate(pivots)}
    residual = (tuple(j for j in range(M.num_cols) if j not in step), tuple(filter(None, rows)))
    return tuple(pivots), step, residual


def certifies_class_map(M, F) -> bool:
    """Whether the class coordinates of ``F``, the Smith form of ``M``, pass
    a certificate that needs no V: every row of M maps to 0 on each free
    coordinate and into d Z on a torsion one of order d, and the images of
    the unit vectors, stacked with d e_i per torsion coordinate i, have
    all-ones divisors under the dense reference, so the map is onto the sum
    of the Z/d.  When the divisors are also right, Z^cols / rows of M is
    isomorphic to that sum, and a surjection between isomorphic finitely
    generated abelian groups is an isomorphism."""
    orders = F.divisors[F.divisors.count(1) :]
    images = [F.image(k) for k in range(M.num_cols)]
    if F.orders != orders or any(len(v) != len(orders) for v in images):
        return False
    for items in M.entries:
        image = [0] * len(orders)
        for k, x in items:
            image = [y + x * v for y, v in zip(image, images[k])]
        if any(y if d == 0 else y % d for y, d in zip(image, orders)):
            return False
    r = len(orders)
    torsion = [[d * (i == j) for j in range(r)] for i, d in enumerate(orders) if d]
    return dense_smith_reference(sparse_matrix(images + torsion, r)) == [1] * r


def rank_mod(M, p: int) -> int:
    """Rank over F_p of a sparse matrix, by reducing each row's leading
    entry against the pivot rows found so far, shortest rows first."""
    pivots = {}  # leading column -> row with leading entry 1
    for items in sorted(M.entries, key=len):
        row = {j: x % p for j, x in items if x % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inverse = pow(row[lead], -1, p)
                pivots[lead] = {j: x * inverse % p for j, x in row.items()}
                break
            q = row[lead]
            for j, x in pivots[lead].items():
                y = (row.get(j, 0) - q * x) % p
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(pivots)


# The rank over F_q of an integer matrix is its rank over Q unless q divides
# one of its Smith divisors, and the divisors met here are far below this q
LARGE_PRIME = (1 << 61) - 1


def structure_by_ranks(M, primes) -> tuple[int, dict]:
    """The free rank of Z^cols / rows of ``M``, and per prime p the number
    of its Smith divisors divisible by p, from ranks over finite fields
    alone: the free rank is cols - rank_Q, and the count at p is
    rank_Q - rank_{F_p}, since reduction mod p kills exactly those."""
    rank = rank_mod(M, LARGE_PRIME)
    return M.num_cols - rank, {p: rank - rank_mod(M, p) for p in primes}


def dense_relation_rows(P, j_max: int, j_min: int = 2) -> list[list[int]]:
    """The relation matrix of a presentation built as full-width rows from
    every position set, character tuples and all, deduplicated and in the
    library's order, sorted by their ``(column, value)`` items: the
    library's rows must be these, in this order."""
    n = P.n
    gens = P.generators
    index = {gen: k for k, gen in enumerate(gens)}
    facs = P.A.invariant_factors
    rows = set()
    for gen in gens:
        for j in range(j_min, j_max + 1):
            for positions in itertools.combinations(range(n), j):
                head = [gen[p] for p in positions]
                tail = [gen[p] for p in range(n) if p not in positions]
                row = [0] * len(gens)
                row[index[gen]] += 1
                for t, a_i in enumerate(head):
                    if a_i in head[:t]:
                        continue
                    transformed = [
                        a_m if m == t
                        else tuple((x - y) % q for x, y, q in zip(a_m, a_i, facs))
                        for m, a_m in enumerate(head)
                    ] + tail
                    row[index[tuple(sorted(transformed))]] -= 1
                if any(row):
                    rows.add(tuple(row))
    items = {row: tuple((c, v) for c, v in enumerate(row) if v) for row in rows}
    return [list(row) for row in sorted(rows, key=items.__getitem__)]


@functools.cache
def _workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    return workloads


def table_presentations():
    """A presentation for every pair of the benchmark's fixed structure
    table (``TABLE_FIXED`` in ``perfbench/workloads.py``), with its
    relation depths: 2 and, when it differs, n."""
    out = []
    for factors, n in _workloads().TABLE_FIXED:
        P = BnGPresentation(AbelianGroup(factors), n)
        out.extend((P, j) for j in sorted({2, n}))
    return out


def digest_pairs() -> list:
    """The (factors, n) pairs the ``reduce_class`` digest covers: every pair
    the benchmark's structure table can draw and every query presentation,
    sorted."""
    workloads = _workloads()
    return sorted(set(workloads.table_pairs()) | set(workloads.QUERY_PRESENTATIONS))


def count_builds(monkeypatch, name, wrap=lambda table: table) -> list:
    """The presentations that build their cached table ``name``, one entry a
    build, each table passed through ``wrap`` before it is cached."""
    built = []
    func = vars(BnGPresentation)[name].func
    prop = functools.cached_property(lambda P: built.append(P) or wrap(func(P)))
    prop.__set_name__(BnGPresentation, name)
    monkeypatch.setattr(BnGPresentation, name, prop)
    return built


def permutation_closure(degree, perms) -> list[tuple]:
    """Elements generated by ``perms``, breadth-first from the identity,
    applying the generators in their given order."""
    ident = tuple(range(degree))
    elems, seen = [ident], {ident}
    for cur in elems:
        for g in perms:
            nxt = tuple(g[cur[i]] for i in range(degree))
            if nxt not in seen:
                seen.add(nxt)
                elems.append(nxt)
    return elems


def table_by_composition(elems, compose) -> tuple:
    """Cayley table by composing every pair of elements, one cell at a time."""
    index = {x: i for i, x in enumerate(elems)}
    return tuple(tuple(index[compose(p, q)] for q in elems) for p in elems)


def compose_permutations(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def abelian_subgroups_by_scan(G) -> list:
    """Every abelian subgroup, by extending each one found with every
    element that commutes with all of it, straight from the Cayley table."""
    tab = G.cayley
    trivial = frozenset((G.identity,))
    found, frontier = {trivial}, [trivial]
    while frontier:
        sub = frontier.pop()
        for g in range(G.order):
            if g in sub or any(tab[g][h] != tab[h][g] for h in sub):
                continue
            ext, power = set(sub), g
            while power not in sub:
                ext.update(tab[h][power] for h in sub)
                power = tab[power][g]
            ext = frozenset(ext)
            if ext not in found:
                found.add(ext)
                frontier.append(ext)
    return sorted(tuple(sorted(s)) for s in found)


def commutes_pairwise(G, elems) -> bool:
    """Whether every two of ``elems`` commute, compared cell by cell in the
    Cayley table."""
    tab = G.cayley
    return all(tab[a][b] == tab[b][a] for a, b in itertools.combinations(elems, 2))


def nonassociative_triples(table) -> list:
    """Every (a, b, c) with (a b) c != a (b c)."""
    n = len(table)
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    ]


def is_associative_by_triples(table) -> bool:
    return not nonassociative_triples(table)


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


def class_info_by_conjugation(G) -> dict:
    """subgroup -> (class representative, least conjugator, normalizer) by
    the general pass: conjugate each class's first subgroup by every g,
    whether or not G is abelian."""
    tab, inv = G.cayley, G.inverse
    info = {}
    for sub in G._abelian_subgroups:
        if sub in info:
            continue
        transporter = {}
        for g in range(G.order):
            img = tuple(sorted(tab[tab[g][h]][inv[g]] for h in sub))
            transporter.setdefault(img, []).append(g)
        rep = min(transporter)
        for img, into in transporter.items():
            g0inv = inv[into[0]]
            info[img] = (
                rep,
                min(tab[g][g0inv] for g in transporter[rep]),
                tuple(sorted(tab[g][g0inv] for g in into)),
            )
    return info


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
    full = full_subgroup(G)
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


def char_value(H, char, elem) -> int:
    """Value of a character of the abelian subgroup ``H`` on one of its
    elements, in Z/exponent (0 = trivial): sum a_i x_i e / n_i over the
    element's coordinates x."""
    A = H.structure
    e = A.exponent
    facs = A.invariant_factors
    return sum(a * x * (e // n) for a, x, n in zip(A.reduce(char), H.coords(elem), facs)) % e


def expansion_closure(factors, n) -> dict:
    """The canonical full-subgroup symbols of the abelian group of
    ``factors`` with atom label k at dimension ``n``, closed under the terms
    of ``expand_b2`` at every weight pair: symbol -> the expansion totals,
    one per pair, in the order the symbols are reached.  In an abelian
    group a symbol with sorted weights is canonical."""
    G = FiniteGroup.from_invariant_factors(factors)
    K = Atom(name="k", trdeg=0)
    todo = [
        Symbol(group=G, subgroup=full_subgroup(G), field_label=K, beta=beta, ambient_n=n)
        for beta in generating_multisets(factors, n)
    ]
    closure = {}
    while todo:
        s = todo.pop()
        if s not in closure:
            pairs = itertools.combinations(range(len(s.beta)), 2)
            closure[s] = [expand_b2(s, i, j).total() for i, j in pairs]
            todo += [t for total in closure[s] for t in total.terms]
    return closure


def _moved_characters(G, src, dst, g, chars) -> list:
    """Characters of ``dst``, a subgroup of ``g src g^-1``, carried from
    ``chars`` on ``src``: the character of dst whose value at x is the old
    one's at g^-1 x g, found among all of dst's characters by comparing
    value tables.  Values are read as fractions of a turn, so that with g
    the identity and dst a smaller subgroup of src this is restriction."""
    tab = G.cayley
    ginv = next(x for x in range(G.order) if tab[g][x] == G.identity)
    pulled = [tab[tab[ginv][x]][g] for x in dst.elements]

    def turns(K, c, elems):
        return tuple(Fraction(char_value(K, c, x), K.structure.exponent) for x in elems)

    by_values = {turns(dst, c, dst.elements): c for c in dst.structure.elements()}
    return [by_values[turns(src, b, pulled)] for b in chars]


def canonicalize_reference(s):
    """Canonical form by a scan on every call: the class representative is
    the least conjugate of the subgroup, reached by the least conjugator,
    and the weights are the least sorted tuple over every element of the
    representative's normalizer."""
    G, elems = s.group, s.subgroup.elements
    rep = min(conjugate_by_scan(G, g, elems) for g in range(G.order))
    H = G.subgroup(rep)
    g = least_conjugator_by_scan(G, elems, rep)
    beta = _moved_characters(G, s.subgroup, H, g, s.beta)
    best = min(
        tuple(sorted(_moved_characters(G, H, H, x, beta)))
        for x in normalizer_by_scan(G, rep)
    )
    return Symbol(
        group=G, subgroup=H, field_label=s.field_label, beta=best, ambient_n=s.ambient_n
    )


def expand_prop46_reference(s, j) -> dict:
    """The multi-index expansion by literal enumeration of every coset of
    each index set's difference subgroup, terms canonicalized by
    ``canonicalize_reference``: symbol -> coefficient.  The joint kernel is
    found by evaluating the differences on every element, labelled by them
    up to sign, and the weights are restricted by comparing value tables."""
    G, H, beta = s.group, s.subgroup, s.beta
    A = H.structure
    facs = A.invariant_factors

    def add(a, b):
        return tuple((x + y) % q for x, y, q in zip(a, b, facs))

    def sub(a, b):
        return tuple((x - y) % q for x, y, q in zip(a, b, facs))

    out = {}
    for size in range(1, j + 1):
        for I in itertools.combinations(range(j), size):
            i0 = I[0]
            diffs = [sub(beta[i], beta[i0]) for i in I[1:]]
            span = A.subgroup_generated(diffs)
            seen = set()
            for rep in A.elements():
                coset = frozenset(add(rep, u) for u in span)
                if coset in seen:
                    continue
                seen.add(coset)
                if A.zero() in coset:
                    continue
                if {i for i in range(j) if beta[i] in coset} != set(I):
                    continue
                if any(beta[k] in span for k in range(j, len(beta))):
                    continue
                complement = [i for i in range(j) if i not in I]
                new_beta = [beta[i0]] + [sub(beta[i], beta[i0]) for i in complement]
                new_beta += beta[j:]
                if diffs:
                    Hbar = G.subgroup(
                        h for h in H.elements if all(char_value(H, d, h) == 0 for d in diffs)
                    )
                    Kbar = ConstrA(
                        base=s.field_label,
                        chars=tuple(sorted(min(d, A.neg(d)) for d in diffs)),
                    )
                    new_beta = _moved_characters(G, H, Hbar, G.identity, new_beta)
                else:
                    Hbar, Kbar = H, s.field_label
                term = canonicalize_reference(
                    Symbol(
                        group=G,
                        subgroup=Hbar,
                        field_label=Kbar,
                        beta=tuple(new_beta),
                        ambient_n=s.ambient_n,
                    )
                )
                out[term] = out.get(term, 0) + 1
    return out


def expand_b2_reference(s, i, j) -> tuple:
    """``(raw_theta1, raw_theta2, vanished_by)`` of the two-term blow-up at
    the weights a1 = beta[i], a2 = beta[j], from the formula: the terms
    (a1, a2 - a1, rest) and (a2, a1 - a2, rest) unless a1 = a2; the joint
    kernel of d = a1 - a2, found by evaluating d on every element, labelled
    by d up to sign and carrying a2 and the rest restricted to it, unless a
    weight lies in <d>; then why a part vanished, if one did."""
    G, H, facs = s.group, s.subgroup, s.subgroup.structure.invariant_factors
    a1, a2 = s.beta[i], s.beta[j]
    rest = [b for k, b in enumerate(s.beta) if k not in (i, j)]

    def sub(x, y):
        return tuple((u - v) % n for u, v, n in zip(x, y, facs))

    def symbol(subgroup, label, beta):
        return Symbol(
            group=G,
            subgroup=subgroup,
            field_label=label,
            beta=tuple(beta),
            ambient_n=s.ambient_n,
        )

    theta1 = ()
    if a1 != a2:
        theta1 = (
            symbol(H, s.field_label, [a1, sub(a2, a1), *rest]),
            symbol(H, s.field_label, [a2, sub(a1, a2), *rest]),
        )
    zero, d = sub(a1, a1), sub(a1, a2)
    multiples = {tuple(k * x % n for x, n in zip(d, facs)) for k in range(max(facs))}
    theta2 = ()
    if not multiples.intersection(s.beta):
        kernel = G.subgroup(h for h in H.elements if char_value(H, d, h) == 0)
        label = ConstrA(base=s.field_label, chars=(min(d, sub(zero, d)),))
        restricted = _moved_characters(G, H, kernel, G.identity, [a2, *rest])
        theta2 = (symbol(kernel, label, restricted),)
    inverse_pair = any(
        sub(zero, b) in s.beta[:k] + s.beta[k + 1 :] for k, b in enumerate(s.beta)
    )
    if not theta1:
        vanished = "equal_weights"
    elif not theta2:
        vanished = "coset_condition"
    else:
        vanished = "B1" if inverse_pair else "none"
    return theta1, theta2, vanished


@functools.cache
def dihedral_d12():
    """Dihedral group of order 24 on 12 points."""
    return FiniteGroup.from_permutations(
        12, [[(i + 1) % 12 for i in range(12)], [(-i) % 12 for i in range(12)]]
    )


@functools.cache
def symmetric_s5_table():
    """S5 given as a raw Cayley table, so the table path builds it."""
    S5 = FiniteGroup.from_permutations(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    return FiniteGroup([list(row) for row in S5.cayley])


@functools.cache
def alternating_a5():
    return FiniteGroup.from_permutations(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])


def stratum_symbols(G, per_stratum=6) -> list:
    """Symbols on a conjugate of every abelian subgroup class other than its
    representative where there is one, at n = 2 and 3 where n is not below
    the rank: up to ``per_stratum`` generating weight tuples each, spread
    over all of them, each in increasing and in decreasing order."""
    out = []
    K = Atom(name="k", trdeg=0)
    for rep in G.abelian_subgroup_classes():
        conjugates = {conjugate_by_scan(G, g, rep.elements) for g in range(G.order)}
        H = G.subgroup(max(conjugates))
        A = H.structure
        nonzero = [a for a in A.elements() if any(a)]
        for n in (2, 3):
            if A.rank > n:
                continue
            betas = [
                b
                for b in itertools.combinations_with_replacement(nonzero, n)
                if len(A.subgroup_generated(b)) == A.order
            ]
            step = max(1, len(betas) // per_stratum)
            for beta in betas[::step][:per_stratum]:
                for order in (beta, beta[::-1]):
                    out.append(
                        Symbol(group=G, subgroup=H, field_label=K, beta=order, ambient_n=n)
                    )
    return out


# the non-abelian groups of the benchmark's symbol workload, but S6
SYMBOL_ORACLE_GROUPS = {"D12": dihedral_d12, "S5": symmetric_s5_table, "A5": alternating_a5}
