import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burnside.bng
import burnside.zlinalg
from burnside import (
    AbelianGroup,
    BnGPresentation,
    InputError,
    cli,
    reduce_class,
    relation_rows,
    smith_normal_form,
)
from conftest import (
    abs_det,
    dense_rows,
    dense_smith_reference,
    laplace_det,
    minor_gcd,
    row_space_equal,
    sparse_matrix,
    table_presentations,
)


def certify(M, F) -> tuple:
    """Certify the Smith form ``F`` of ``M`` without a row transform and
    return its V: V is unimodular, column k of M V lies in d_k Z, and the
    divisors are the dense reference's."""
    V = F.transform()
    assert F.divisors == dense_smith_reference(M)
    assert abs_det(V) == 1
    for row in dense_rows(M):
        image = [0] * M.num_cols  # the row times V
        for j, x in enumerate(row):
            if x:
                image = [y + x * v for y, v in zip(image, V[j])]
        for y, d in zip(image, F.divisors):
            assert y == 0 if d == 0 else y % d == 0
    return V


def columns_from(V: tuple, first: int) -> tuple:
    return tuple(row[first:] for row in V)


def check_snf(M):
    """Certify ``(divisors, V)``, and check that the running products of
    the divisors are the minor gcds of M.  Together these pin the row
    lattice of M V to the sum of the d_k Z."""
    F = smith_normal_form(M)
    divisors, V = F.divisors, certify(M, F)
    assert len(divisors) == M.num_cols
    # positive, divisibility chain, zeros trailing
    rank = sum(1 for d in divisors if d)
    assert all(d > 0 for d in divisors[:rank])
    assert not any(divisors[rank:])
    for a, b in zip(divisors, divisors[1:rank]):
        assert b % a == 0
    prod = 1
    for k, d in enumerate(divisors[:rank], start=1):
        prod *= d
        assert prod == minor_gcd(M, k)
    return divisors, V


def _row_pairs():
    """Two integer matrices of up to 4 rows on the same 1 to 3 columns."""

    def pair(cols):
        rows = st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4
        )
        return st.tuples(rows, rows, st.just(cols))

    return st.integers(1, 3).flatmap(pair)


class TestSmithNormalForm:
    def test_identity(self):
        F = smith_normal_form(sparse_matrix([[1, 0], [0, 1]]))
        assert F.divisors == [1, 1] and F.transform() == ((1, 0), (0, 1))

    def test_2x2_example(self):
        M = sparse_matrix([[2, 4], [6, 8]])
        divisors, _ = check_snf(M)
        # oracle: gcd of entries is 2, |det| = 8 -> elementary divisors 2, 4
        assert minor_gcd(M, 1) == 2
        assert abs(laplace_det(dense_rows(M))) == 8
        assert divisors == [2, 4]

    def test_zero_matrix(self):
        M = sparse_matrix([[0, 0, 0], [0, 0, 0]])
        divisors, V = check_snf(M)
        assert divisors == [0, 0, 0]
        assert V == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_empty_and_nonsquare(self):
        for M in (
            sparse_matrix([], num_cols=3),
            sparse_matrix([[0, 0, 0]]),
            sparse_matrix([[1], [2], [3]]),
            sparse_matrix([[5, 0], [0, 3], [1, 1]]),
        ):
            check_snf(M)

    def test_minor_gcd_agreement_random(self):
        rng = random.Random(20240817)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            check_snf(
                sparse_matrix(
                    [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
                )
            )


def _random_matrices():
    """2,403 seeded matrices of up to 8 x 8, mostly units and zeros."""
    rng = random.Random(20261018)
    values = (0, 0, 0, 1, -1, 2, -2, 3, -3, 5)
    shapes = [(0, 0), (0, 3), (3, 0)]
    shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(2400)]
    for m, n in shapes:
        yield sparse_matrix(
            [[rng.choice(values) for _ in range(n)] for _ in range(m)], n
        )


class TestSparseUnitPivots:
    """The divisors match the dense reference, and V, built from the records
    of the same fill-reducing elimination, passes the certificate."""

    def test_matches_dense_reference_random(self):
        for M in _random_matrices():
            certify(M, smith_normal_form(M))

    def test_matches_dense_reference_on_relation_matrices(self):
        for P, j in table_presentations():
            M = relation_rows(P, j)
            certify(M, smith_normal_form(M))

    def test_dense_loop_sees_only_the_residual(self, monkeypatch):
        # B_2(Z/23), 264 x 275: 250 unit pivots in the fill-reducing order
        # leave 3 rows on 25 columns.  For the divisors, the 3 x 24 block on
        # the columns still held runs as 24 x 3 with no transform; for V,
        # the 3 x 25 block runs with its 25 columns of V.  The dense row and
        # column operations act on those alone, never on the full matrix
        touched = []

        def spy(op):
            def wrapped(a, *args):
                touched.append((op.__name__, len(a), len(a[0])))
                return op(a, *args)

            return wrapped

        for name in ("_swap_rows", "_swap_cols", "_add_row", "_add_col"):
            monkeypatch.setattr(
                burnside.zlinalg, name, spy(getattr(burnside.zlinalg, name))
            )
        M = BnGPresentation(AbelianGroup((23,)), 2).relation_matrix
        assert (M.num_rows, M.num_cols) == (264, 275)
        F = smith_normal_form(M)
        assert (F.divisors.count(0), [d for d in F.divisors if d > 1]) == (23, [22])
        assert (len(F.pivots), len(F.residual[0]), len(F.residual[1])) == (250, 25, 3)
        divisors_only, touched[:] = list(touched), []
        F.transform()
        for ops, (rows, cols) in ((divisors_only, (24, 3)), (touched, (3, 25))):
            assert ops
            for name, height, width in ops:
                if name in ("_swap_cols", "_add_col"):
                    assert height <= rows and width <= cols, (name, height, width)
                else:
                    # a row operation on the block or a V-column operation
                    assert height <= max(rows, cols), (name, height, width)


class TestNormalFormMap:
    """The n x r map: the columns of V past the units, built on request
    from the records of the one elimination."""

    def test_map_matches_reference_random(self):
        for M in _random_matrices():
            F = smith_normal_form(M)
            units = F.divisors.count(1)
            assert F.divisors[units:] == dense_smith_reference(M)[units:], M
            assert F.transform(units) == columns_from(F.transform(), units), M

    def test_map_matches_reference_on_relation_matrices(self):
        for P, j in table_presentations():
            M = relation_rows(P, j)
            F = smith_normal_form(M)
            units = F.divisors.count(1)
            nf_map = columns_from(F.transform(), units)
            assert F.transform(units) == nf_map, (P.A, P.n, j)
            if j == 2:
                assert P.snf_data == (F.divisors[units:], nf_map), (P.A, P.n)

    def test_map_matches_reference_b2_z29(self):
        P = BnGPresentation(AbelianGroup((29,)), 2)
        divisors, nf_map = P.snf_data
        assert (len(nf_map), len(nf_map[0])) == (434, 37)
        V = certify(P.relation_matrix, P.smith_form)
        assert nf_map == columns_from(V, 434 - 37)
        assert divisors == P.smith_form.divisors[434 - 37 :]

    def test_structure_queries_build_no_transform(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("column transform built for a structure query")

        monkeypatch.setattr(burnside.zlinalg.SmithForm, "transform", refuse)
        assert BnGPresentation(AbelianGroup((23,)), 2).structure() == (23, [22])
        for argv, out in (
            (["bng-structure", "--group", '{"invariant_factors":[23]}', "--n", "2"],
             '{"free_rank":23,"torsion":[22]}\n'),
            (["verify-prop71", "--group", '{"invariant_factors":[4]}', "--n", "3"],
             '{"row_spaces_equal":true}\n'),
            (["verify-prop71", "--group", '{"invariant_factors":[2,2]}', "--n", "3"],
             '{"row_spaces_equal":true}\n'),
        ):
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == out

    def test_structure_and_reduce_class_run_one_smith_form(self, monkeypatch):
        # one elimination serves the divisors and V; V is built once
        calls = []
        smith = burnside.bng.smith_normal_form
        transform = burnside.zlinalg.SmithForm.transform

        def counting_smith(M):
            calls.append("smith_normal_form")
            return smith(M)

        def counting_transform(F, first=0):
            calls.append("transform")
            return transform(F, first)

        monkeypatch.setattr(burnside.bng, "smith_normal_form", counting_smith)
        monkeypatch.setattr(burnside.zlinalg.SmithForm, "transform", counting_transform)
        P = BnGPresentation(AbelianGroup((23,)), 2)
        assert P.structure() == (23, [22])
        for gen in P.generators[:5]:
            reduce_class(P, {gen: 1})
        assert calls == ["smith_normal_form", "transform"]


class TestCokernel:
    """Z^cols modulo the row space is the sum of the Z/d_k."""

    def test_no_relations(self):
        M = sparse_matrix([], num_cols=3)
        assert smith_normal_form(M).divisors == [0, 0, 0]

    def test_diagonal(self):
        M = sparse_matrix([[2, 0], [0, 1]])
        assert smith_normal_form(M).divisors == [1, 2]

    def test_2x2_example(self):
        M = sparse_matrix([[2, 4], [6, 8]])
        assert smith_normal_form(M).divisors == [2, 4]


class TestHermite:
    """Row-lattice equality, decided from Smith divisors by the oracle of
    the membership test."""

    def test_row_space_permutation_invariance(self):
        M = sparse_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        P = sparse_matrix([[7, 8, 10], [1, 2, 3], [4, 5, 6]])
        assert row_space_equal(M, P)

    def test_strict_sublattice(self):
        assert not row_space_equal(
            sparse_matrix([[2]]), sparse_matrix([[4]])
        )

    def test_column_mismatch(self):
        with pytest.raises(InputError):
            smith_normal_form(sparse_matrix([[1]])).contains(sparse_matrix([[1, 0]]))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_unimodular_row_op_invariance(self, rows, q):
        M = sparse_matrix(rows)
        assert row_space_equal(M, M)
        # add q * last row to first row: a unimodular row operation
        changed = [list(r) for r in rows]
        changed[0] = [a + q * b for a, b in zip(changed[0], changed[-1])]
        if len(rows) > 1:
            assert row_space_equal(M, sparse_matrix(changed))

    def test_equal_divisors_different_lattices(self):
        # both have Smith divisors [1, 2]; neither lattice contains the other
        assert not row_space_equal(
            sparse_matrix([[2, 0], [0, 1]]),
            sparse_matrix([[1, 0], [0, 2]]),
        )

    def test_equal_lattices_neither_row_set_contained(self):
        assert row_space_equal(
            sparse_matrix([[1, 0], [0, 1]]),
            sparse_matrix([[1, 1], [0, 1]]),
        )

    @given(_row_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_minor_gcd_oracle(self, case):
        # L1 = L2 iff L1, L2 and L1 + L2 have the same minor gcds at every
        # size: their quotients of Z^cols are then isomorphic, and each
        # maps onto the quotient by L1 + L2
        rows1, rows2, cols = case
        M1 = sparse_matrix(rows1, cols)
        M2 = sparse_matrix(rows2, cols)
        stacked = sparse_matrix(rows1 + rows2, cols)
        expected = all(
            minor_gcd(M1, k) == minor_gcd(M2, k) == minor_gcd(stacked, k)
            for k in range(1, cols + 1)
        )
        assert row_space_equal(M1, M2) == expected

    def test_verify_prop71_runs_one_smith_form(self, monkeypatch, capsys):
        # the j = 2 rows are eliminated once, where the presentation looks
        # the kernel up, and the j = 3 rows are reduced through its record;
        # a second elimination, from either module, is counted
        counted = []
        original = burnside.zlinalg.smith_normal_form

        def counting(M):
            counted.append(M.num_rows)
            return original(M)

        monkeypatch.setattr(burnside.bng, "smith_normal_form", counting)
        monkeypatch.setattr(burnside.zlinalg, "smith_normal_form", counting)
        code = cli.run(
            ["verify-prop71", "--group", '{"invariant_factors":[4]}', "--n", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"row_spaces_equal":true}\n'
        P = BnGPresentation(AbelianGroup((4,)), 3)
        assert counted == [P.relation_matrix.num_rows]


# B_3 presentations, and the shape of the block left after their unit
# pivots: rows by the columns they hold.  B_3(Z/5) leaves none.
RESIDUAL_SHAPES = {
    (7,): (21, 1), (8,): (16, 1), (2, 4): (32, 3), (2, 2, 2): (64, 8), (5,): (0, 0)
}


class TestContains:
    """Row-lattice membership by forward substitution over the recorded unit
    pivots, checked against the stacked-divisor oracle."""

    @pytest.mark.parametrize(
        "factors", list(RESIDUAL_SHAPES), ids=lambda f: "x".join(map(str, f))
    )
    def test_matches_divisor_oracle_on_b3(self, factors):
        P = BnGPresentation(AbelianGroup(factors), 3)
        M, F = P.relation_matrix, P.smith_form
        block = F.residual[1]
        assert (len(block), len({j for row in block for j in row})) == RESIDUAL_SHAPES[factors]
        relations = dense_rows(M) + dense_rows(relation_rows(P, 3, 3))
        rng = random.Random(f"contains:{factors}")
        seen = set()
        for _ in range(60):
            kind = rng.randrange(3)
            row = [0] * M.num_cols
            if kind < 2:  # an integer combination of relation rows
                for r in rng.sample(relations, 3):
                    q = rng.randint(-3, 3)
                    row = [x + q * y for x, y in zip(row, r)]
            if kind > 0:  # a sparse change, after which it need not be one
                for j in rng.sample(range(M.num_cols), rng.randint(1, 2)):
                    row[j] += rng.choice((-2, -1, 1, 2))
            got = F.contains(sparse_matrix([row]))
            assert got == row_space_equal(M, sparse_matrix(dense_rows(M) + [row])), row
            seen.add(got)
        # with no residual the pivots span every column: every row is in
        assert seen == ({True, False} if block else {True})

    @given(_row_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_oracle_random(self, case):
        rows1, rows2, cols = case
        M1 = sparse_matrix(rows1, cols)
        stacked = sparse_matrix(rows1 + rows2, cols)
        got = smith_normal_form(M1).contains(sparse_matrix(rows2, cols))
        assert got == row_space_equal(M1, stacked)

    def test_each_matrix_holds_its_own_rows(self):
        for M in _random_matrices():
            assert smith_normal_form(M).contains(M)


class TestDet:
    """|det| of a square matrix, the product of its Smith divisors, which
    is what the wedge test reads."""

    def test_matches_laplace(self):
        # the abs_det oracle that certifies V against cofactor expansion
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(0, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert abs_det(rows) == abs(laplace_det(rows))

    def test_big_entries_exact(self):
        # arbitrary precision: no overflow on large intermediate values
        M = sparse_matrix([[10**30, 1], [1, 10**30]])
        divisors = smith_normal_form(M).divisors
        assert math.prod(divisors) == 10**60 - 1
