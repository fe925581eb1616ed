import itertools
import math
import random
from fractions import Fraction

import pytest

from burnside import (
    AbelianGroup,
    BnGPresentation,
    InputError,
    SizeError,
    reduce_class,
    wedge_equivalent,
)
from burnside.abelian import MAX_WEDGE_RANK, _pivots
from conftest import (
    full_group_symbol,
    generates,
    group_json,
    laplace_det,
    minor_gcd,
    sparse_matrix,
)

# primes with a product past 10**12
P, Q = 1000003, 1000033


class TestAbelianGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(InputError, match="< 2"):
            AbelianGroup((1,))
        with pytest.raises(InputError, match="does not divide"):
            AbelianGroup((4, 2))
        assert AbelianGroup(()).order == 1
        assert AbelianGroup((2, 4)).order == 8

    def test_trivial_group_has_one_character(self):
        A = AbelianGroup(())
        assert list(A.elements()) == [()]
        assert A.zero() == ()

    def test_arithmetic(self):
        A = AbelianGroup((2, 4))
        assert A.add((1, 3), (1, 2)) == (0, 1)
        assert A.neg((1, 3)) == (1, 1)
        assert len(A.subgroup_generated([(0, 1)])) == 4
        assert len(A.subgroup_generated([(1, 2)])) == 2

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            AbelianGroup((2,)).reduce((1, 0))

    def test_non_integer_entries_refused(self):
        # a float is not truncated, and a string or a boolean is not read as
        # an integer: an input error for a character, an invariant error for
        # a factor (an input error through the JSON reader)
        A = AbelianGroup((3,))
        B2 = BnGPresentation(A, 2)
        for x in (1.5, 1.0, Fraction(1), "1", None, True):
            with pytest.raises(InputError, match="not an integer"):
                A.reduce((x,))
            with pytest.raises(InputError, match="not an integer"):
                reduce_class(B2, {((x,), (1,)): 1})
            with pytest.raises(InputError, match="not an integer"):
                full_group_symbol((3,), [(x,)], 1)
            with pytest.raises(InputError, match="not an integer"):
                wedge_equivalent(A, [(x,)], [(1,)])
            with pytest.raises(InputError, match="not an integer"):
                AbelianGroup((x,))
        with pytest.raises(InputError):
            AbelianGroup.from_json('{"invariant_factors": [3.0]}')
        # any iterable of integers is still a character
        assert A.reduce(x for x in [4]) == A.reduce([4]) == A.add((2,), (2,)) == (1,)

    def test_json_roundtrip(self):
        A = AbelianGroup((2, 4))
        assert AbelianGroup.from_json(group_json(A)) == A
        with pytest.raises(InputError):
            AbelianGroup.from_json('{"factors": [2]}')
        with pytest.raises(InputError):
            AbelianGroup.from_json('{"invariant_factors": [4, 2]}')


class TestGenerates:
    def test_cyclic(self):
        A = AbelianGroup((4,))
        assert generates(A, [(1,)])
        assert not generates(A, [(2,), (2,)])

    def test_klein_four(self):
        assert generates(AbelianGroup((2, 2)), [(1, 0), (1, 1)])
        assert not generates(AbelianGroup((2, 2)), [(1, 1)])

    def test_trivial(self):
        assert generates(AbelianGroup(()), [])

    @pytest.mark.parametrize(
        "factors",
        [(m,) for m in range(2, 13)]
        + [(2, 2), (2, 4), (2, 6), (3, 9), (4, 4), (2, 2, 2)],
        ids=str,
    )
    def test_matches_closure_oracle(self, factors):
        # generation against the size of the closure
        A = AbelianGroup(factors)
        for size in (1, 2, 3):
            for beta in itertools.combinations_with_replacement(A.elements(), size):
                want = len(A.subgroup_generated(beta)) == A.order
                assert generates(A, beta) == want, beta

    def test_unreduced_input(self):
        A = AbelianGroup((2, 6))
        assert generates(A, [(3, 0), (2, -1)])
        assert not generates(A, [(1, 9), (3, 3)])
        with pytest.raises(InputError):
            generates(A, [(1,)])

    def test_exponent_bound(self):
        # no exponent is too large: nothing is factored
        p, q = 10**40 + 3, 10**40 + 9
        A = AbelianGroup((p * q,))
        assert generates(A, [(p + q,)])
        assert not generates(A, [(5 * p,), (7 * p,)])

    @pytest.mark.parametrize(
        "factors", [(P * Q,), (P, P * Q), (2 * P, 2 * P * Q)], ids=str
    )
    def test_matches_minor_gcd_oracle(self, factors):
        # the weights generate exactly when they and the relations n_i e_i
        # have r x r minors of gcd 1; entries are random multiples of the
        # divisors of the exponent, so both answers occur
        A = AbelianGroup(factors)
        r, e = A.rank, A.exponent
        diag = [[n * (i == j) for j in range(r)] for i, n in enumerate(factors)]
        rng = random.Random(repr(factors))
        answers = set()
        for _ in range(150):
            beta = [
                [rng.choice((1, 2, P, Q)) * rng.randrange(-e, 2 * e) for _ in range(r)]
                for _ in range(rng.randint(1, 3))
            ]
            want = minor_gcd(sparse_matrix(beta + diag), r) == 1
            assert generates(A, beta) == want, beta
            answers.add(want)
        assert answers == {True, False}

    def test_large_rank_matches_f2_rank(self):
        # over (Z/2)^60 the weights generate exactly when they have rank 60
        # over F_2 (bit rows, xor basis); entries stay bounded, so each
        # answer takes milliseconds
        r = 60
        A = AbelianGroup((2,) * r)
        rng = random.Random(60)
        answers = set()
        for k in (59, 60, 60, 60, 61, 64):
            beta = [tuple(rng.randrange(2) for _ in range(r)) for _ in range(k)]
            basis = {}
            for row in beta:
                bits = int("".join(map(str, row)), 2)
                while bits and bits.bit_length() in basis:
                    bits ^= basis[bits.bit_length()]
                if bits:
                    basis[bits.bit_length()] = bits
            want = len(basis) == r
            assert generates(A, beta) == want
            answers.add(want)
            if want and k == r:
                assert wedge_equivalent(A, beta, beta[::-1])
        assert answers == {True, False}


class TestWedge:
    def test_swap_invariance(self):
        A = AbelianGroup((5, 5))
        beta = [(1, 0), (0, 1)]
        assert wedge_equivalent(A, beta, [beta[1], beta[0]])

    def test_z5_squared_pairs(self):
        A = AbelianGroup((5, 5))
        e1, e2 = (1, 0), (0, 1)
        assert not wedge_equivalent(A, [e1, e2], [e1, (0, 2)])
        assert wedge_equivalent(A, [e1, e2], [e1, (0, 4)])

    def test_rank_bound(self):
        # a random generating tuple of (Z/2)^100 answers; at the bound an
        # identity tuple answers, and past it no character is even read
        rng = random.Random(100)
        A = AbelianGroup((2,) * 100)
        beta = []
        while not generates(A, beta):
            beta = [tuple(rng.randrange(2) for _ in range(100)) for _ in range(100)]
        assert wedge_equivalent(A, beta, beta[::-1])
        r = MAX_WEDGE_RANK
        identity = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        assert wedge_equivalent(AbelianGroup((2,) * r), identity, identity)
        with pytest.raises(SizeError, match=f"rank {r + 1} exceeds bound {r}"):
            wedge_equivalent(AbelianGroup((2,) * (r + 1)), ["x"], None)

    def test_rejects_wrong_length(self):
        A = AbelianGroup((5, 5))
        with pytest.raises(InputError, match="length rank"):
            wedge_equivalent(A, [(1, 0)], [(0, 1)])

    def test_rejects_non_generating(self):
        A = AbelianGroup((5, 5))
        with pytest.raises(InputError, match="generating tuples"):
            wedge_equivalent(A, [(1, 0), (2, 0)], [(1, 0), (0, 1)])

    def test_equivalence_relation(self):
        A = AbelianGroup((3, 3))
        elems = [a for a in A.elements()]
        tuples = [
            (x, y)
            for x in elems
            for y in elems
            if generates(A, [x, y])
        ]
        sample = tuples[::7]
        for t in sample:
            assert wedge_equivalent(A, t, t)
        for s, t in itertools.combinations(sample, 2):
            assert wedge_equivalent(A, s, t) == wedge_equivalent(A, t, s)

    @pytest.mark.parametrize(
        "factors, step",
        [((3, 3), 1), ((2, 4), 1), ((2, 2, 2), 9), ((5, 5), 61)],
        ids=["Z3xZ3", "Z2xZ4", "Z2xZ2xZ2-sample", "Z5xZ5-sample"],
    )
    def test_matches_cofactor_determinants(self, factors, step):
        # the class of a tuple is its cofactor determinant mod n_1, up to
        # sign: every ordered pair of generating tuples, or every step-th;
        # over Z/5 x Z/5 the classes +-1 and +-2 differ
        A = AbelianGroup(factors)
        n1 = factors[0]
        tuples = [
            t
            for t in itertools.product(A.elements(), repeat=A.rank)
            if len(A.subgroup_generated(t)) == A.order
        ]
        for s, t in list(itertools.product(tuples, repeat=2))[::step]:
            ds, dt = laplace_det(s), laplace_det(t)
            expected = (ds - dt) % n1 == 0 or (ds + dt) % n1 == 0
            assert wedge_equivalent(A, s, t) == expected, (s, t)

    def test_pivot_product_is_det_mod_m(self):
        # square matrices, singular ones included, against cofactor
        # expansion: the product of the pivots is +-det mod m
        rng = random.Random(7)
        for _ in range(300):
            d, m = rng.randint(1, 4), rng.choice((2, 6, 7, 12, 10**15 + 37))
            rows = [[rng.randrange(m) for _ in range(d)] for _ in range(d)]
            if d > 1 and rng.random() < 0.2:
                rows[-1] = [(2 * x - 3 * y) % m for x, y in zip(rows[0], rows[-2])]
            det, prod = laplace_det(rows), math.prod(_pivots(rows, (m,) * d))
            assert (prod - det) % m == 0 or (prod + det) % m == 0, (rows, m)

    def test_mixed_factors_well_defined(self):
        # determinant mod the smallest factor is lift-independent
        A = AbelianGroup((2, 4))
        beta = [(1, 0), (0, 1)]
        gamma = [(1, 2), (0, 1)]
        lifted = [(1, 0), (0, 5)]  # same characters, different integer lifts
        assert wedge_equivalent(A, beta, lifted)
        assert wedge_equivalent(A, beta, gamma) == wedge_equivalent(
            A, gamma, beta
        )
