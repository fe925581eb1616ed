"""Acceptance suite: one criterion per test, one printed pass/fail line each."""

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from burnside import (
    AbelianGroup,
    Atom,
    BnGPresentation,
    FiniteGroup,
    SparseMatrix,
    Symbol,
    expand_b2,
    expand_prop46,
    project_sum,
    project_symbol,
    reduce_class,
    relation_rows,
    smith_normal_form,
    wedge_equivalent,
)
from conftest import (
    certifies_class_map,
    dense_rows,
    full_subgroup,
    generates,
    minor_gcd,
    row_space_equal,
    sparse_matrix,
)

GOLDEN = Path(__file__).parent / "golden"

SMALL_ABELIAN = [
    (2,),
    (3,),
    (4,),
    (2, 2),
    (5,),
    (6,),
    (7,),
    (8,),
    (2, 4),
    (2, 2, 2),
    (9,),
    (3, 3),
]


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def totient(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def oracle_structure(M: SparseMatrix):
    """Cokernel structure from gcds of minors, independent of the SNF code."""
    divisors = []
    prev = 1
    for k in range(1, min(M.num_rows, M.num_cols) + 1):
        g = minor_gcd(M, k)
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    free = M.num_cols - len(divisors)
    torsion = [d for d in divisors if d > 1]
    return free, torsion


def full_symbols(G, full, A, n):
    nonzero = [a for a in A.elements() if any(a)]
    K = Atom(name="k", trdeg=0)
    for beta in itertools.combinations_with_replacement(nonzero, n):
        if len(A.subgroup_generated(beta)) != A.order:
            continue
        yield Symbol(
            group=G, subgroup=full, field_label=K, beta=beta, ambient_n=n
        )


def test_criterion_1_structure_suite():
    ok = True
    details = []
    for m in range(1, 13):
        A = AbelianGroup((m,) if m > 1 else ())
        got = BnGPresentation(A, 1).structure()
        want = (totient(m), [])
        if got != want:
            ok = False
            details.append(f"B_1(Z/{m}) = {got}, expected {want}")
    for factors, n, want in (((2,), 2, (0, [])), ((3,), 2, (1, []))):
        A = AbelianGroup(factors)
        got = BnGPresentation(A, n).structure()
        oracle = oracle_structure(relation_rows(BnGPresentation(A, n), 2))
        if got != want or oracle != want:
            ok = False
            details.append(f"B_{n}({factors}) = {got}, oracle {oracle}, expected {want}")
    report(1, ok, details or "rank phi(m) at n=1 for m<=12; B_2(Z/2)=0; B_2(Z/3)=Z (minor-gcd oracle)")


def test_criterion_2_presentation_with_j2_only():
    ok = True
    checked = 0
    for factors in ((2,), (3,), (4,), (5,), (2, 2)):
        A = AbelianGroup(factors)
        for n in (2, 3):
            P = BnGPresentation(A, n)
            if not row_space_equal(relation_rows(P, 2), relation_rows(P, n)):
                ok = False
            checked += 1
    report(2, ok, f"j<=2 rows span all-j rows for {checked} (group, n) cases")


def test_criterion_3_dihedral_example():
    proc = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "example-d8"],
        capture_output=True,
        text=True,
    )
    out = json.loads(proc.stdout)
    t1_betas = sorted(tuple(map(tuple, t["beta"])) for t in out["raw_theta1"])
    ok = (
        proc.returncode == 0
        and t1_betas == [((0, 1), (1, 1)), ((1, 0), (1, 1))]
        and len(out["raw_theta2"]) == 1
        and out["raw_theta2"][0]["beta"] == [[1]]
        and out["theta2_in_reflection_class"] is True
    )
    report(3, ok, "two first-part symbols (a1,a1+a2),(a2,a1+a2); second part over the reflection class with beta=(a)")


def test_criterion_4_homomorphism_shadow():
    ok = True
    checked = 0
    for factors in SMALL_ABELIAN:
        A = AbelianGroup(factors)
        G = FiniteGroup.from_invariant_factors(factors)
        full = full_subgroup(G)
        for n in (2, 3):
            P = BnGPresentation(A, n)
            for s in full_symbols(G, full, A, n):
                base = reduce_class(P, project_symbol(s, P))
                for i, j in itertools.combinations(range(n), 2):
                    image = project_sum(expand_b2(s, i, j).total(), P)
                    if reduce_class(P, image) != base:
                        ok = False
                    checked += 1
                for j in range(2, n + 1):
                    image = project_sum(expand_prop46(s, j), P)
                    if reduce_class(P, image) != base:
                        ok = False
                    checked += 1
    report(4, ok, f"projection commutes with expansion in {checked} exhaustive cases, |A|<=9, n<=3")


def test_criterion_5_zero_sum_prefix_vanishes():
    ok = True
    checked = 0
    for factors in SMALL_ABELIAN:
        A = AbelianGroup(factors)
        for n in (2, 3):
            P = BnGPresentation(A, n)
            for gen in P.generators:
                # zero entries are padding, not weights; the vanishing rule
                # applies when j of the weights sum to zero
                nonzero = [a for a in gen if any(a)]
                vanishes = False
                for j in range(2, n + 1):
                    for sub in itertools.combinations(nonzero, j):
                        total = A.zero()
                        for a in sub:
                            total = A.add(total, a)
                        if total == A.zero():
                            vanishes = True
                if not vanishes:
                    continue
                if not reduce_class(P, {gen: 1}).is_zero():
                    ok = False
                checked += 1
    report(5, ok, f"{checked} generators with a zero-sum set of weights all reduce to 0")


def test_criterion_6_wedge_suite():
    A = AbelianGroup((5, 5))
    e1, e2 = (1, 0), (0, 1)
    ok = (
        not wedge_equivalent(A, [e1, e2], [e1, (0, 2)])
        and wedge_equivalent(A, [e1, e2], [e1, (0, 4)])
    )
    rng = random.Random(5)
    for _ in range(50):
        x = [
            tuple(rng.randrange(5) for _ in range(2)),
            tuple(rng.randrange(5) for _ in range(2)),
        ]
        if not generates(A, x):
            continue
        swapped = [x[1], x[0]]
        if not wedge_equivalent(A, x, swapped):
            ok = False
    report(6, ok, "swap invariance; (e1,2e2) inequivalent and (e1,4e2) equivalent to (e1,e2) over Z/5 x Z/5")


def test_criterion_7_smith_form_properties():
    rng = random.Random(20240824)
    ok = True
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = sparse_matrix(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        )
        F = smith_normal_form(M)
        divisors = F.divisors
        # rows of M map to 0 or into d_k Z, and the unit vectors' images are onto
        if len(divisors) != n or not certifies_class_map(M, F):
            ok = False
        if any(d < 0 for d in divisors):
            ok = False
        for a, b in zip(divisors, divisors[1:]):
            if (a == 0 and b != 0) or (a != 0 and b % a != 0):
                ok = False
        prod = 1
        for k, d in enumerate(divisors, start=1):
            if d == 0:
                break
            prod *= d
            if prod != minor_gcd(M, k):
                ok = False
    report(7, ok, "500 random matrices <=8x8: class map certified without V, divisor chain, minor gcds")


def test_criterion_8_cli_golden_files():
    cases = [
        (
            "bng_structure_z3_n2.json",
            ["bng-structure", "--group", '{"invariant_factors":[3]}', "--n", "2"],
        ),
        (
            "verify_prop71_z2_n2.json",
            ["verify-prop71", "--group", '{"invariant_factors":[2]}', "--n", "2"],
        ),
        ("example_d8.json", ["example-d8"]),
        (
            "bng_reduce_z61.json",
            ["bng-reduce", "--group", '{"invariant_factors":[61]}', "--n", "2", "--class", "[[1],[2]]"],
        ),
        (
            "expand_s4_conjugate.json",
            [
                "expand",
                "--group",
                '{"type":"permutation","degree":4,"generators":[[1,0,2,3],[1,2,3,0]]}',
                "--symbol",
                '{"subgroup":[0,5,17,18],"field":{"atom":{"name":"k","trdeg":0}},'
                '"beta":[[0,1],[1,0]],"n":2}',
                "--i",
                "0",
                "--j",
                "1",
            ],
        ),
        (
            "bng_equal_z7.json",
            ["bng-equal", "--group", '{"invariant_factors":[7]}', "--n", "2",
             "--x", "[[0],[1]]", "--y", "[[1],[1]]"],
        ),
    ]
    ok = True
    for name, args in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", *args],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or proc.stdout != (GOLDEN / name).read_text():
            ok = False
    for factors, n, row in (([2], 2, "Z/2,2,0,"), ([2], 1, "Z/2,1,1,"), ([], 1, "1,1,1,")):
        group = json.dumps({"invariant_factors": factors})
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", "bng-structure", "--group", group,
             "--n", str(n), "--format", "csv"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or proc.stdout != f"group,n,free_rank,torsion\n{row}\n":
            ok = False
    report(8, ok, "byte-exact JSON outputs and CSV table rows")
