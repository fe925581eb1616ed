import itertools

import pytest

from burnside import (
    AbelianGroup,
    InputError,
    InvariantError,
    PreconditionError,
    SizeError,
    generates,
    wedge_equivalent,
)
from burnside.abelian import MAX_EXPONENT
from conftest import laplace_det


class TestAbelianGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(InvariantError):
            AbelianGroup((1,))
        with pytest.raises(InvariantError):
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
        assert A.element_order((0, 1)) == 4
        assert A.element_order((1, 2)) == 2

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            AbelianGroup((2,)).reduce((1, 0))

    def test_json_roundtrip(self):
        A = AbelianGroup((2, 4))
        assert AbelianGroup.from_json(A.to_json()) == A
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
        # the F_p rank test against the size of the closure
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
        # the bound itself is factored (2^12 5^12); one above it is refused
        assert generates(AbelianGroup((MAX_EXPONENT,)), [(1,)])
        with pytest.raises(SizeError):
            generates(AbelianGroup((MAX_EXPONENT + 1,)), [(1,)])


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

    def test_rejects_wrong_length(self):
        A = AbelianGroup((5, 5))
        with pytest.raises(PreconditionError):
            wedge_equivalent(A, [(1, 0)], [(0, 1)])

    def test_rejects_non_generating(self):
        A = AbelianGroup((5, 5))
        with pytest.raises(PreconditionError):
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
