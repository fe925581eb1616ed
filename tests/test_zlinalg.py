import functools
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
    equal_classes,
    reduce_class,
    relation_rows,
    smith_normal_form,
)
from conftest import (
    certifies_class_map,
    dense_rows,
    dense_smith_reference,
    laplace_det,
    minor_gcd,
    row_space_equal,
    sparse_matrix,
    table_presentations,
    unit_pivot_reference,
)


def certify(M, F) -> list:
    """Certify the Smith form ``F`` of ``M`` with neither transform: the
    divisors are the dense reference's, so Z^cols / rows of M is the sum of
    the Z/d_k, and the class map passes ``certifies_class_map``, so it is
    an isomorphism onto that sum.  Returns the unit vectors' coordinates."""
    assert F.divisors == dense_smith_reference(M)
    assert certifies_class_map(M, F), M
    return [F.image(k) for k in range(M.num_cols)]


def spy_residual_transform(monkeypatch, hook):
    """Call ``hook(form)`` at each build of a form's residual transform, the
    dense loop with transform columns that class coordinates read."""
    build = burnside.zlinalg.SmithForm._residual_rows.func

    def spied(F):
        hook(F)
        return build(F)

    prop = functools.cached_property(spied)
    prop.__set_name__(burnside.zlinalg.SmithForm, "_residual_rows")
    monkeypatch.setattr(burnside.zlinalg.SmithForm, "_residual_rows", prop)


def check_generator_classes(P, images):
    """``reduce_class`` of each generator of ``P`` splits its coordinates
    ``images[k]`` by their orders: free ones exact, torsion ones reduced."""
    orders = P.smith_form.orders
    for gen, v in zip(P.generators, images):
        cls = reduce_class(P, {gen: 1})
        assert cls.free == tuple(y for y, d in zip(v, orders) if not d)
        assert cls.torsion == tuple(y % d for y, d in zip(v, orders) if d)


def check_snf(M):
    """Certify the form and its class map, and check that the running
    products of the divisors are the minor gcds of M, an oracle apart from
    the dense reference.  Returns the divisors and the unit vectors'
    coordinates."""
    F = smith_normal_form(M)
    divisors, images = F.divisors, certify(M, F)
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
    return divisors, images


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
        assert F.divisors == [1, 1] and F.orders == []
        assert (F.image(0), F.image(1)) == ((), ())

    def test_2x2_example(self):
        M = sparse_matrix([[2, 4], [6, 8]])
        divisors, _ = check_snf(M)
        # oracle: gcd of entries is 2, |det| = 8 -> elementary divisors 2, 4
        assert minor_gcd(M, 1) == 2
        assert abs(laplace_det(dense_rows(M))) == 8
        assert divisors == [2, 4]

    def test_zero_matrix(self):
        M = sparse_matrix([[0, 0, 0], [0, 0, 0]])
        divisors, images = check_snf(M)
        assert divisors == [0, 0, 0]
        assert images == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

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


def _sparse_matrices():
    """Matrices of up to 12 x 12 on entries -2..2, mostly zeros, so rows
    lose and regain units and -1 pivots occur."""
    entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2))

    def matrices(cols):
        rows = st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=12)
        return rows.map(lambda rs: sparse_matrix(rs, cols))

    return st.integers(1, 12).flatmap(matrices)


class TestSparseUnitPivots:
    """The divisors match the dense reference, and the class coordinates,
    read from the record of the same fill-reducing elimination, pass the
    certificate."""

    @given(_sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_pivot_record_matches_the_rescanning_rule(self, M):
        # the heap, the column index and the in-place updates choose and
        # record exactly what a full re-scan by the documented rule does
        F = smith_normal_form(M)
        pivots, step, residual = unit_pivot_reference(M)
        assert F.pivots == pivots
        assert F.step == step
        cols, block = F.residual
        assert (cols, [tuple(row.items()) for row in block]) == (
            residual[0], [tuple(row.items()) for row in residual[1]])

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
        # the columns still held is turned tall and brought to an echelon
        # triangle, at most 3 x 3, which runs with no transform; for class
        # coordinates, the 3 x 25 block runs as it stands, once, with its 25
        # transform columns.  The dense row and column operations act on
        # those alone, never on the full matrix
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
        F.image(F.residual[0][0])  # a residual column reaches W
        builds = list(touched)
        for k in range(M.num_cols):  # the transform is built once per form
            F.image(k)
        assert touched == builds
        for ops, (rows, cols) in ((divisors_only, (3, 3)), (touched, (3, 25))):
            assert ops
            for name, height, width in ops:
                if name in ("_swap_cols", "_add_col"):
                    assert height <= rows and width <= cols, (name, height, width)
                else:
                    # a row operation on the block or on transform columns
                    assert height <= max(rows, cols), (name, height, width)


@st.composite
def _unit_free_blocks(draw):
    """Matrices of up to 6 x 6, tall and wide, on entries up to +-50 with no
    unit, so the unit pivots leave them whole to the divisor pass, with some
    rows and columns zero."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.integers(-50, 50).filter(lambda x: abs(x) != 1)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0))))
    rows = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return sparse_matrix(rows, n)


def _transpose(M):
    return sparse_matrix(list(zip(*dense_rows(M))), M.num_rows)


class TestEchelonDivisorPass:
    """The divisors of the block left after the unit pivots are read from an
    echelon triangle of it, turned tall first: checked against the dense
    reference on full-width rows and the minor gcds, neither of which
    triangularises."""

    @given(_unit_free_blocks())
    @settings(max_examples=150, deadline=None)
    def test_divisors_match_the_oracles(self, M):
        # the block and its transpose: one of them is the wide case
        for N in (M, _transpose(M)):
            F = smith_normal_form(N)
            assert not F.pivots
            check_snf(N)

    @given(_unit_free_blocks())
    @settings(max_examples=150, deadline=None)
    def test_echelon_is_a_triangle(self, M):
        # leading columns strictly increase, so there are at most as many
        # rows as columns, and no row is zero
        a = burnside.zlinalg._echelon(dense_rows(M))
        leads = [next(j for j, x in enumerate(row) if x) for row in a]
        assert leads == sorted(set(leads))
        assert len(a) <= min(M.num_rows, M.num_cols)

    def test_dense_loop_runs_on_the_triangle(self, monkeypatch):
        # the divisor pass hands the dense loop at most min(rows, cols) rows
        # of the short side, while the transform W still runs on the block
        # as it stands, so class coordinates do not move
        calls = []
        dense = burnside.zlinalg._dense_smith

        def spy(a, vcols):
            calls.append((any(vcols), [list(row) for row in a], len(vcols)))
            return dense(a, vcols)

        monkeypatch.setattr(burnside.zlinalg, "_dense_smith", spy)
        rng = random.Random(34)
        blocks = [
            BnGPresentation(AbelianGroup((23,)), 2).relation_matrix,  # 3 x 24 left
            BnGPresentation(AbelianGroup((2, 2, 2)), 3).relation_matrix,  # 64 x 8 left
            sparse_matrix([[rng.choice((0, 2, -3, 4)) for _ in range(7)] for _ in range(3)]),
            sparse_matrix([[rng.choice((0, 2, -3, 4)) for _ in range(3)] for _ in range(7)]),
        ]
        for M in blocks:
            calls.clear()
            F = smith_normal_form(M)
            cols, block = F.residual
            held = sorted({j for row in block for j in row})
            short = min(len(block), len(held))
            [(transform, a, width)] = calls
            assert not transform and width == short
            assert len(a) <= short and all(len(row) == short for row in a)
            calls.clear()
            certify(M, F)
            [(transform, a, width)] = calls
            assert transform and width == len(cols)
            assert a == [[row.get(j, 0) for j in cols] for row in block]


class TestNormalFormMap:
    """Class coordinates: W on what the forward solve over the recorded
    pivots leaves of a unit vector, checked by the certificate, which shares
    no code with the engine."""

    def test_map_matches_reference_random(self):
        # the same coordinates in whatever order the unit vectors are asked
        for M in _random_matrices():
            images = certify(M, smith_normal_form(M))
            F = smith_normal_form(M)
            assert [F.image(k) for k in reversed(range(M.num_cols))] == images[::-1], M

    def test_map_matches_reference_on_relation_matrices(self):
        for P, j in table_presentations():
            M = relation_rows(P, j)
            images = certify(M, smith_normal_form(M))
            if j == 2:
                check_generator_classes(P, images)

    def test_map_matches_reference_b2_z29(self):
        P = BnGPresentation(AbelianGroup((29,)), 2)
        F = P.smith_form
        assert (len(F.divisors), len(F.orders)) == (434, 37)
        images = certify(P.relation_matrix, F)
        assert F.orders == F.divisors[434 - 37 :]
        check_generator_classes(P, images)

    def test_structure_queries_build_no_transform(self, monkeypatch, capsys):
        def refuse(F):
            raise AssertionError("residual transform built for a structure query")

        spy_residual_transform(monkeypatch, refuse)
        assert BnGPresentation(AbelianGroup((23,)), 2).structure() == (23, [22])
        for argv, out in (
            (["bng-structure", "--group", '{"invariant_factors":[23]}', "--n", "2"],
             '{"free_rank":23,"torsion":[22]}\n'),
            (["verify-prop71", "--group", '{"invariant_factors":[4]}', "--n", "3"],
             '{"row_spaces_equal":true}\n'),
            (["verify-prop71", "--group", '{"invariant_factors":[2,2]}', "--n", "3"],
             '{"row_spaces_equal":true}\n'),
            # B_3(Z/3 x Z/3) has free rank 3, so its j = 3 rows are solved, all
            # on the pivots
            (["verify-prop71", "--group", '{"invariant_factors":[3,3]}', "--n", "3"],
             '{"row_spaces_equal":true}\n'),
        ):
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == out

    def test_membership_builds_the_transform_once(self, monkeypatch, capsys):
        # B_3(Z/2 x Z/2 x Z/2) leaves a residual block, so the j = 3 rows
        # reach the residual columns and are read through W: one build for
        # the one form that verify-prop71 eliminates
        built = []
        spy_residual_transform(monkeypatch, built.append)
        argv = ["verify-prop71", "--group", '{"invariant_factors":[2,2,2]}', "--n", "3"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == '{"row_spaces_equal":true}\n'
        assert len(built) == 1
        assert len(built[0].residual[1]) == RESIDUAL_SHAPES[(2, 2, 2)][0]

    def test_structure_and_reduce_class_run_one_smith_form(self, monkeypatch):
        # one elimination serves the divisors and the classes; the residual
        # transform is built once per form, on the first class query
        calls = []
        smith = burnside.bng.smith_normal_form

        def counting_smith(M):
            calls.append("smith_normal_form")
            return smith(M)

        monkeypatch.setattr(burnside.bng, "smith_normal_form", counting_smith)
        spy_residual_transform(monkeypatch, lambda F: calls.append(F))
        P = BnGPresentation(AbelianGroup((23,)), 2)
        assert P.structure() == (23, [22])
        assert calls == ["smith_normal_form"]
        for gen in P.generators:
            reduce_class(P, {gen: 1})
        assert calls == ["smith_normal_form", P.smith_form]
        Q = BnGPresentation(AbelianGroup((2, 4)), 3)
        for gen in Q.generators:
            assert equal_classes(Q, {gen: 2}, [(gen, 1), (gen, 1)])
        assert calls[2:] == ["smith_normal_form", Q.smith_form]


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
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(0, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            divisors = smith_normal_form(sparse_matrix(rows, n)).divisors
            assert math.prod(divisors) == abs(laplace_det(rows))

    def test_big_entries_exact(self):
        # arbitrary precision: no overflow on large intermediate values
        M = sparse_matrix([[10**30, 1], [1, 10**30]])
        divisors = smith_normal_form(M).divisors
        assert math.prod(divisors) == 10**60 - 1
