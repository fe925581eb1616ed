import itertools

import pytest

from burnside import (
    AbelianGroup,
    Atom,
    BnGPresentation,
    ConstrA,
    FiniteGroup,
    InputError,
    Symbol,
    SymbolSum,
    canonicalize_symbol,
    expand_b2,
    expand_prop46,
    relation_rows,
)
from burnside.relations import (
    VANISHED_COSET,
    VANISHED_EQUAL_WEIGHTS,
    VANISHED_NONE,
)
from conftest import (
    SYMBOL_ORACLE_GROUPS,
    count_builds,
    apply_b1,
    char_value,
    dense_relation_rows,
    dense_rows,
    expand_b2_reference,
    expand_prop46_reference,
    full_group_symbol,
    generating_multisets,
    stratum_symbols,
    table_presentations,
)


class TestExpandB2:
    def test_dihedral_regression(self, d8, d8_parts):
        """Frozen expansion of the standard order-4 Klein symbol."""
        H = d8_parts["H"]
        K = Atom(name="CxC", trdeg=0, alg_closure_degree=1, num_components=2)
        s = Symbol(
            group=d8, subgroup=H, field_label=K, beta=((1, 0), (0, 1)), ambient_n=2
        )
        report = expand_b2(s, 0, 1)
        assert report.vanished_by == VANISHED_NONE

        assert [t.beta for t in report.raw_theta1] == [
            ((1, 0), (1, 1)),
            ((0, 1), (1, 1)),
        ]
        assert all(t.subgroup == H for t in report.raw_theta1)
        assert all(t.field_label == K for t in report.raw_theta1)

        (t2,) = report.raw_theta2
        assert t2.field_label == ConstrA(base=K, chars=((1, 1),))
        assert t2.beta == ((1,),)
        assert len(t2.subgroup.elements) == 2
        # the kernel of a_1 - a_2 is a reflection subgroup, not the center
        rho2 = d8_parts["rho2"]
        assert rho2 not in t2.subgroup.elements
        # oracle: the honest joint kernel of the difference character
        assert list(t2.subgroup.elements) == sorted(
            h for h in H.elements if char_value(H, (1, 1), h) == 0
        )

    def test_equal_weights_drop_theta1(self):
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        report = expand_b2(s, 0, 1)
        assert report.theta1 == SymbolSum()
        assert report.vanished_by == VANISHED_EQUAL_WEIGHTS
        # the second part survives with a zero-character construction label
        (t2,) = report.raw_theta2
        assert t2.field_label == ConstrA(
            base=s.field_label, chars=((0,),)
        )
        assert t2.subgroup == s.subgroup

    def test_coset_condition_drops_theta2(self):
        # over Z/4 with weights 1 and 2 the difference 3 spans everything
        s = full_group_symbol((4,), [(1,), (2,)], 2)
        report = expand_b2(s, 0, 1)
        assert report.theta1 != SymbolSum()
        assert report.theta2 == SymbolSum()
        assert report.vanished_by == VANISHED_COSET

    def test_position_validation(self):
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        for i, j in ((0, 0), (-1, 1), (0, 5)):
            with pytest.raises(InputError):
                expand_b2(s, i, j)

    @pytest.mark.parametrize("name", SYMBOL_ORACLE_GROUPS)
    def test_matches_blowup_formula(self, name):
        """The raw terms and the vanishing reason against the formula, on
        every stratum at every ordered pair of positions."""
        for s in stratum_symbols(SYMBOL_ORACLE_GROUPS[name]()):
            for i, j in itertools.permutations(range(len(s.beta)), 2):
                report = expand_b2(s, i, j)
                got = (report.raw_theta1, report.raw_theta2, report.vanished_by)
                assert got == expand_b2_reference(s, i, j), (s.to_json_obj(), i, j)

    def test_symmetric_in_the_two_positions(self):
        for beta in generating_multisets((4,), 2):
            s = full_group_symbol((4,), beta, 2)
            r1 = expand_b2(s, 0, 1)
            r2 = expand_b2(s, 1, 0)
            assert r1.total() == r2.total()


class TestApplyB1:
    def test_drops_inverse_pairs(self):
        s = full_group_symbol((5,), [(1,), (4,)], 2)
        t = full_group_symbol((5,), [(1,), (2,)], 2)
        x = apply_b1(SymbolSum.of(s, t))
        assert x == SymbolSum.of(t)

    def test_self_inverse_weights(self):
        s = full_group_symbol((2,), [(1,), (1,)], 2)
        assert apply_b1(SymbolSum.of(s)) == SymbolSum()


class TestProp46:
    def test_j2_matches_pairwise_expansion(self):
        for factors in ((3,), (4,), (2, 2), (6,)):
            for beta in generating_multisets(factors, 2):
                s = full_group_symbol(factors, beta, 2)
                assert expand_prop46(s, 2) == expand_b2(s, 0, 1).total(), (
                    factors,
                    beta,
                )

    def test_j2_matches_on_longer_symbols(self):
        for beta in generating_multisets((3,), 3):
            s = full_group_symbol((3,), beta, 3)
            assert expand_prop46(s, 2) == expand_b2(s, 0, 1).total(), beta

    def test_z3_triple_oracle(self):
        """Hand-computed expansion of beta = (1, 1, 2) over Z/3 at j = 3.

        Admissible index sets: {3} alone in its singleton coset, giving the
        untouched-label term with weights (2, 2, 2); and {1, 2}, whose
        difference vanishes, giving a zero-character construction term with
        weights (1, 1).  Every other index set fails the coset conditions.
        """
        s = full_group_symbol((3,), [(1,), (1,), (2,)], 3)
        out = expand_prop46(s, 3)
        expected_a = canonicalize_symbol(
            Symbol(
                group=s.group,
                subgroup=s.subgroup,
                field_label=s.field_label,
                beta=((2,), (2,), (2,)),
                ambient_n=3,
            )
        )
        expected_b = canonicalize_symbol(
            Symbol(
                group=s.group,
                subgroup=s.subgroup,
                field_label=ConstrA(base=s.field_label, chars=((0,),)),
                beta=((1,), (1,)),
                ambient_n=3,
            )
        )
        assert out.terms == {expected_a: 1, expected_b: 1}

    @pytest.mark.parametrize("name", SYMBOL_ORACLE_GROUPS)
    def test_matches_coset_enumeration(self, name):
        """The one admissible coset per index set against every coset, on
        every stratum at j = 2 and 3."""
        symbols = stratum_symbols(SYMBOL_ORACLE_GROUPS[name]())
        assert any(s.ambient_n == 3 for s in symbols)
        for s in symbols:
            for j in range(2, s.ambient_n + 1):
                want = expand_prop46_reference(s, j)
                assert expand_prop46(s, j).terms == want, (s.to_json_obj(), j)

    def test_j_validation(self):
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        with pytest.raises(InputError):
            expand_prop46(s, 1)
        with pytest.raises(InputError):
            expand_prop46(s, 3)


class TestRelationRows:
    def test_z2_rows_frozen(self):
        # generators of Z/2 at n = 2: {0, 1} then {1, 1}
        M = relation_rows(BnGPresentation(AbelianGroup((2,)), 2), 2)
        assert dense_rows(M) == [[-1, 1], [0, -1]]

    def test_z3_rows_frozen(self):
        # generators in order: {0,1}, {0,2}, {1,1}, {1,2}, {2,2}
        M = relation_rows(BnGPresentation(AbelianGroup((3,)), 2), 2)
        assert dense_rows(M) == [
            [-1, 0, 1, 0, 0],
            [0, -1, 0, 0, 1],
            [0, 0, -1, 1, -1],
            [0, 0, 0, -1, 0],
        ]

    def test_rows_are_sorted_and_deduplicated(self):
        # sorted as tuples of (column, value) items, not as dense tuples
        M = relation_rows(BnGPresentation(AbelianGroup((5,)), 3), 2)
        assert list(M.entries) == sorted(M.entries)
        rows = dense_rows(M)
        assert len(rows) == len({tuple(r) for r in rows})
        assert all(any(r) for r in rows)

    def test_matches_dense_oracle_on_table(self):
        # row for row and in order, which fixes the pivot order: from j = 2,
        # and from j = 3 as verify-prop71 builds them
        for P, j in table_presentations():
            for j_min in range(2, min(j, 3) + 1):
                M = relation_rows(P, j, j_min)
                assert (dense_rows(M), M.num_cols) == (
                    dense_relation_rows(P, j, j_min), len(P.generators)
                ), (P.A, P.n, j, j_min)

    def test_matches_dense_oracle_b2_z29(self):
        P = BnGPresentation(AbelianGroup((29,)), 2)
        M = relation_rows(P, 2)
        assert (M.num_rows, M.num_cols) == (420, 434)
        assert dense_rows(M) == dense_relation_rows(P, 2)

    def test_j_max_validation(self):
        A = AbelianGroup((3,))
        with pytest.raises(InputError):
            relation_rows(BnGPresentation(A, 2), 1)
        with pytest.raises(InputError):
            relation_rows(BnGPresentation(A, 2), 3)

    def test_rows_agree_with_direct_expansion(self):
        # each row asserts generator = sum of its transformed generators;
        # recheck one instance against an independent hand expansion
        P = BnGPresentation(AbelianGroup((4,)), 2)
        gens = P.generators
        M = relation_rows(P, 2)
        gen = ((1,), (2,))
        idx = gens.index(gen)
        # blow up at both positions: (1, 2) -> (1, 1) and (2, 3)
        expected = {idx: 1}
        for target in (((1,), (1,)), ((2,), (3,))):
            expected[gens.index(target)] = expected.get(gens.index(target), 0) - 1
        matching = [
            row
            for row in dense_rows(M)
            if {k: v for k, v in enumerate(row) if v} == expected
        ]
        assert len(matching) == 1

    def test_rows_visit_sub_multisets(self, monkeypatch):
        # a row depends only on which characters sit at the j positions: on
        # [2] at n = 15 one visit per position set makes about 880,000
        # index lookups, one per sub-multiset about 1,300; the lookups are
        # counted on the presentation's generator index
        class CountingIndex(dict):
            lookups = 0

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

        indexes = []

        def counting(index):
            indexes.append(CountingIndex(index))
            return indexes[-1]

        count_builds(monkeypatch, "generator_index", counting)
        M = relation_rows(BnGPresentation(AbelianGroup((2,)), 15), 15)
        assert M.num_rows > 0
        assert len(indexes) == 1
        assert 0 < indexes[0].lookups < 10_000
