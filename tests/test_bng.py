import functools
import hashlib
import itertools
import json
import math
import operator
import subprocess
import sys
from fractions import Fraction

import pytest

import burnside.abelian
import burnside.bng
import burnside.relations
import burnside.symbols
from burnside import (
    AbelianGroup,
    Atom,
    BnGPresentation,
    ConstrA,
    DomainError,
    FiniteGroup,
    InputError,
    ProvenanceError,
    SizeError,
    Symbol,
    enumerate_generators,
    equal_classes,
    expand_b2,
    group_structure,
    project_sum,
    project_symbol,
    reduce_class,
    relation_rows,
)
from burnside.abelian import generates_reduced
from conftest import (
    dense_rows,
    digest_pairs,
    full_group_symbol,
    full_subgroup,
    structure_by_ranks,
)

# sha256 of one json.dumps([factors, n, generator, free, torsion]) line per
# single-generator class over ``digest_pairs()``, generators in presentation
# order: the normal-form coordinates, byte for byte
REDUCE_CLASS_DIGEST = "daa8f69f8714a61ec63863b8dd8e2c5a4523498b4689e11f928f922bc1998a32"
# sha256 of one json.dumps line per presentation of ``digest_pairs()``: the
# Smith form's divisors, unit pivots, steps and residual block, each row of
# it in the elimination's own order: the elimination record, byte for byte
SMITH_RECORD_DIGEST = "68ee67fb65ac77f1321db2adbfedc54ab2dfd74f0bb9d396b28d3b7deb5cfe81"
# sha256 of one json.dumps([factors, n, generators]) line per presentation
# of ``digest_pairs()``: the enumerated generator lists, byte for byte
GENERATOR_DIGEST = "efa198e50a1d5fadb0151edbc45c234f206ba6c20da74129cf2da8b034f75eb8"


def totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


class TestEnumeration:
    def test_z2_pairs(self):
        gens = enumerate_generators(AbelianGroup((2,)), 2)
        assert gens == [((0,), (1,)), ((1,), (1,))]

    def test_single_characters_are_units(self):
        for m in (2, 3, 4, 6, 8, 12):
            gens = enumerate_generators(AbelianGroup((m,)), 1)
            assert len(gens) == totient(m)

    def test_size_bound(self):
        # the bound is checked before any of the 500,500 candidates is built
        with pytest.raises(SizeError):
            enumerate_generators(AbelianGroup((1000,)), 2)

    def test_dimension_validation(self):
        with pytest.raises(InputError):
            enumerate_generators(AbelianGroup((3,)), 0)
        for n in (0, -1):
            with pytest.raises(InputError, match=f"dimension n = {n} must"):
                BnGPresentation(AbelianGroup((3,)), n).relation_matrix

    @pytest.mark.parametrize(
        "factors,n",
        [
            ((12,), 3), ((2, 2), 4), ((3, 6), 2), ((2, 4), 3), ((2, 2, 2), 3),
            # cyclic: nearly every candidate holds a generator (prime), or
            # many hold none and take the rank test (composite)
            ((7,), 2), ((12,), 2),
            ((), 2), ((), 1),  # trivial: the one character generates
            ((2, 2), 2), ((2, 2), 1),  # rank 2: no character generates alone
            ((12,), 1), ((7,), 1),
        ],
    )
    def test_matches_closure_filter(self, factors, n):
        # the unvalidated generation test, and its one-generator shortcut,
        # against the BFS span
        A = AbelianGroup(factors)
        want = [
            combo
            for combo in itertools.combinations_with_replacement(A.elements(), n)
            if len(A.subgroup_generated(combo)) == A.order
        ]
        assert enumerate_generators(A, n) == want

    def test_generator_digest(self):
        # the generator lists of every benchmark presentation, byte for byte
        h = hashlib.sha256()
        for factors, n in digest_pairs():
            gens = enumerate_generators(AbelianGroup(factors), n)
            h.update((json.dumps([factors, n, gens]) + "\n").encode())
        assert h.hexdigest() == GENERATOR_DIGEST

    @pytest.mark.parametrize("factors,n", [((7,), 2), ((7,), 1), ((2, 2), 2), ((2, 12), 2)])
    def test_no_rank_test_one_mask_table(self, monkeypatch, factors, n):
        # generation is read off the mask table, built once per presentation
        # and shared by its structure, rows and class queries
        ranks, tables = [], []
        real_rank, real_masks = burnside.abelian.generates_reduced, burnside.bng._maximal_masks
        for module in (burnside.abelian, burnside.bng, burnside.relations, burnside.symbols):
            if hasattr(module, "generates_reduced"):
                monkeypatch.setattr(
                    module, "generates_reduced", lambda *a: ranks.append(a) or real_rank(*a)
                )
        monkeypatch.setattr(
            burnside.bng, "_maximal_masks", lambda A: tables.append(A) or real_masks(A)
        )
        P = BnGPresentation(AbelianGroup(factors), n)
        P.structure()
        reduce_class(P, {P.generators[0]: 1})
        assert len(tables) == 1
        assert enumerate_generators(AbelianGroup(factors), n) == P.generators
        assert len(tables) == 2
        assert ranks == []

    @pytest.mark.parametrize("factors,n", [((2, 2, 2), 2), ((2,) * 11, 1)])
    def test_rank_above_n_builds_no_masks(self, monkeypatch, factors, n):
        # A needs rank-many generators: none exist, and no table is built
        tables = []
        monkeypatch.setattr(burnside.bng, "_maximal_masks", tables.append)
        assert enumerate_generators(AbelianGroup(factors), n) == []
        assert tables == []

    @pytest.mark.parametrize(
        "factors",
        [(m,) for m in range(2, 13)]
        + [(2, 2), (2, 4), (2, 6), (3, 9), (4, 4), (2, 2, 2)],
        ids=str,
    )
    def test_masks_match_rank_test(self, factors):
        # every multiset of one to three characters, rank above size too
        A = AbelianGroup(factors)
        masks = burnside.bng._maximal_masks(A)
        chars = list(A.elements())
        assert len(masks) == len(chars)
        for size in (1, 2, 3):
            for codes in itertools.combinations_with_replacement(range(len(chars)), size):
                beta = [chars[k] for k in codes]
                meet = functools.reduce(operator.and_, (masks[k] for k in codes))
                assert (meet == 0) == generates_reduced(A, beta), beta


class TestNoClosureOnEnumeration:
    """Generation is decided by the rank test, never by a closure."""

    @pytest.fixture(autouse=True)
    def no_closure(self, monkeypatch):
        def refuse(self, gens):
            raise AssertionError("subgroup_generated on the B_n path")

        monkeypatch.setattr(AbelianGroup, "subgroup_generated", refuse)

    def test_structure(self):
        assert BnGPresentation(AbelianGroup((23,)), 2).structure() == (23, [22])

    def test_bng_structure_cli(self, capsys):
        from burnside import cli

        code = cli.run(
            ["bng-structure", "--group", '{"invariant_factors":[23]}', "--n", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"free_rank":23,"torsion":[22]}\n'


class TestOneEnumeration:
    """Each op enumerates the generators once, through its presentation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import burnside.bng

        counted = []
        original = burnside.bng._generator_codes

        def counting(*args, **kwargs):
            counted.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(burnside.bng, "_generator_codes", counting)
        return counted

    def test_structure(self, calls):
        BnGPresentation(AbelianGroup((5,)), 3).structure()
        assert len(calls) == 1

    def test_verify_prop71(self, calls, capsys):
        from burnside import cli

        code = cli.run(
            ["verify-prop71", "--group", '{"invariant_factors":[4]}', "--n", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"row_spaces_equal":true}\n'
        assert len(calls) == 1

    def test_verify_prop71_at_n1_enumerates_nothing(self, calls, capsys):
        # no relation exists at dimension one, whatever the group's order
        from burnside import cli

        code = cli.run(
            ["verify-prop71", "--group", '{"invariant_factors":[3000000]}', "--n", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"row_spaces_equal":true}\n'
        assert calls == []

    def test_verify_prop71_at_n2_builds_no_row(self, calls, monkeypatch, capsys):
        # j ranges over {2} alone: the generators are enumerated, for the
        # candidate bound, and no relation row is built
        import burnside.bng
        from burnside import cli

        def refuse(*args, **kwargs):
            raise AssertionError("relation rows built at n = 2")

        monkeypatch.setattr(burnside.bng, "relation_rows", refuse)
        monkeypatch.setattr(cli, "relation_rows", refuse)
        code = cli.run(
            ["verify-prop71", "--group", '{"invariant_factors":[4]}', "--n", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"row_spaces_equal":true}\n'
        assert len(calls) == 1

    def test_verify_prop71_refuses_before_the_j2_rows(self, monkeypatch, capsys):
        # the j <= 24 rows are priced before the j = 2 rows are built
        from burnside import cli

        def refuse(self):
            raise AssertionError("j = 2 rows built before the size bound")

        monkeypatch.setattr(BnGPresentation, "relation_matrix", property(refuse))
        code = cli.run(
            ["verify-prop71", "--group", '{"invariant_factors":[2]}', "--n", "24"]
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("size error: the relation rows visit more cells")


class TestOneTable:
    def test_rows_and_classes_share_one_table(self, monkeypatch):
        # the j = 2 rows, the j = 3 rows and a class query all read the
        # presentation's one coded generator table
        counted = []
        original = burnside.bng._coded_generators

        def counting(*args):
            counted.append(args)
            return original(*args)

        monkeypatch.setattr(burnside.bng, "_coded_generators", counting)
        P = BnGPresentation(AbelianGroup((2, 4)), 3)
        assert P.smith_form.contains(relation_rows(P, 3, 3))
        reduce_class(P, {P.generators[-1]: 1})
        assert len(counted) == 1
        _, index, _ = P.coded_table
        assert list(index.values()) == list(range(len(P.generators)))


class TestStructure:
    def test_dimension_one_is_free_on_units(self):
        # no relations exist at dimension one
        for m in range(1, 13):
            factors = (m,) if m > 1 else ()
            free, torsion = group_structure(AbelianGroup(factors), 1)
            assert (free, torsion) == (totient(m), [])

    def test_z2_pairs_trivial(self):
        assert group_structure(AbelianGroup((2,)), 2) == (0, [])

    def test_z3_pairs_infinite_cyclic(self):
        assert group_structure(AbelianGroup((3,)), 2) == (1, [])

    @pytest.mark.parametrize(
        "p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    )
    def test_b2_prime_free_rank(self, p):
        # Kontsevich-Pestun-Tschinkel: B_2(Z/p) has free rank (p^2 + 23)/24
        free, _ = group_structure(AbelianGroup((p,)), 2)
        assert free == (p * p + 23) // 24

    @pytest.mark.parametrize(
        "factors,n",
        [((4,), 2), ((6,), 2), ((2, 4), 2), ((2, 2), 3), ((5,), 3), ((3,), 4)],
    )
    def test_matches_sympy_smith_form(self, factors, n):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form

        P = BnGPresentation(AbelianGroup(factors), n)
        M = P.relation_matrix
        S = smith_normal_form(Matrix(dense_rows(M)))
        diagonal = [abs(S[k, k]) for k in range(min(S.shape))]
        nonzero = [d for d in diagonal if d]
        want = (M.num_cols - len(nonzero), sorted(d for d in nonzero if d > 1))
        assert P.structure() == want


class TestModPOracle:
    """Structures against ranks over finite fields, which share no code
    with the integer elimination."""

    @pytest.mark.parametrize(
        "factors,n",
        [((5,), 2), ((7,), 2), ((11,), 2), ((13,), 2), ((17,), 3)],
    )
    def test_structure_matches_ranks(self, factors, n):
        # every prime dividing a divisor, and the primes up to 7
        P = BnGPresentation(AbelianGroup(factors), n)
        free, torsion = P.structure()
        primes = [
            p
            for p in range(2, max(torsion + [7]) + 1)
            if all(p % k for k in range(2, p))
            and (p <= 7 or any(d % p == 0 for d in torsion))
        ]
        want = {p: sum(1 for d in torsion if d % p == 0) for p in primes}
        assert structure_by_ranks(P.relation_matrix, primes) == (free, want)

    def test_b3_z20(self):
        # the input that hung in the dense pivot order: 7 free, nine 2s
        P = BnGPresentation(AbelianGroup((20,)), 3)
        assert structure_by_ranks(P.relation_matrix, [2, 3, 5]) == (7, {2: 9, 3: 0, 5: 0})
        assert P.structure() == (7, [2] * 9)

    @pytest.mark.parametrize(
        "p,torsion,ranks",
        [(127, [2] * 8 + [672], {2: 9}), (151, [2, 2, 2, 2, 950], {2: 5})],
    )
    def test_b2_past_the_size_bound(self, p, torsion, ranks, monkeypatch):
        # with the cells bound lifted, B_2(Z/127) leaves a 19 x 682 block
        # after its unit pivots: as it stands the dense loop answers in about
        # a second, while on the 682 x 19 transpose its entries grow past
        # any timeout
        lift = 10**12
        code = (
            "import burnside.bng, burnside.relations\n"
            f"burnside.bng.MAX_RELATION_CELLS = {lift}\n"
            f"burnside.relations.MAX_RELATION_CELLS = {lift}\n"
            "from burnside import AbelianGroup, BnGPresentation\n"
            f"print(BnGPresentation(AbelianGroup(({p},)), 2).structure())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        free = (p * p + 23) // 24
        assert proc.stdout == f"{(free, torsion)}\n"
        monkeypatch.setattr(burnside.bng, "MAX_RELATION_CELLS", lift)
        monkeypatch.setattr(burnside.relations, "MAX_RELATION_CELLS", lift)
        P = BnGPresentation(AbelianGroup((p,)), 2)
        assert structure_by_ranks(P.relation_matrix, [2]) == (free, ranks)


class TestReduce:
    def test_relation_rows_reduce_to_zero(self):
        for factors in ((3,), (4,), (2, 2)):
            P = BnGPresentation(AbelianGroup(factors), 2)
            for row in dense_rows(P.relation_matrix):
                x = {P.generators[i]: c for i, c in enumerate(row) if c}
                assert reduce_class(P, x).is_zero()

    def test_list_form_sums_repeated_generators(self):
        # every relation row up to j = n, as (generator, coeff) pairs with
        # the first generator split over two pairs
        for factors, n in (((4,), 3), ((2, 2), 3), ((3,), 4)):
            P = BnGPresentation(AbelianGroup(factors), n)
            for row in dense_rows(relation_rows(P, n)):
                terms = [(P.generators[i], c) for i, c in enumerate(row) if c]
                g, c = terms[0]
                pairs = [(g, c + 1)] + terms[1:] + [(g, -1)]
                assert reduce_class(P, pairs) == reduce_class(P, dict(terms))
                assert reduce_class(P, pairs).is_zero()

    def test_z3_hand_relations(self):
        P = BnGPresentation(AbelianGroup((3,)), 2)
        # blowing up {1, 1} gives {0, 1}; blowing up {1, 2} gives zero
        assert equal_classes(
            P, {((1,), (1,)): 1}, {((0,), (1,)): 1}
        )
        assert reduce_class(P, {((1,), (2,)): 1}).is_zero()
        # {0, 1} + {0, 2} = 0, and the two are independent otherwise
        assert reduce_class(
            P, {((0,), (1,)): 1, ((0,), (2,)): 1}
        ).is_zero()
        assert not reduce_class(P, {((0,), (1,)): 1}).is_zero()

    def test_unreduced_and_unsorted_input(self):
        P = BnGPresentation(AbelianGroup((3,)), 2)
        assert equal_classes(P, {((4,), (0,)): 1}, {((0,), (1,)): 1})

    def test_non_generator_rejected(self):
        P = BnGPresentation(AbelianGroup((4,)), 2)
        with pytest.raises(InputError):
            reduce_class(P, {((0,), (2,)): 1})

    def test_non_integer_coefficients_refused(self):
        # a float is not truncated, and a string, None or a boolean is an
        # input error rather than a bare ValueError or TypeError
        P = BnGPresentation(AbelianGroup((3,)), 2)
        g = ((0,), (1,))
        for coeff in (1.5, 1.0, Fraction(1), "1", "x", None, True):
            with pytest.raises(InputError, match="not an integer"):
                reduce_class(P, {g: coeff})
            with pytest.raises(InputError, match="not an integer"):
                reduce_class(P, [(g, 1), (g, coeff)])
            with pytest.raises(InputError, match="not an integer"):
                equal_classes(P, {g: 1}, {g: coeff})
        assert reduce_class(P, {g: 2}) == reduce_class(P, [(g, 1), (g, 1)])

    def test_reduce_class_digest(self):
        h = hashlib.sha256()
        for factors, n in digest_pairs():
            P = BnGPresentation(AbelianGroup(factors), n)
            for gen in P.generators:
                cls = reduce_class(P, {gen: 1})
                line = json.dumps([factors, n, gen, cls.free, cls.torsion])
                h.update((line + "\n").encode())
        assert h.hexdigest() == REDUCE_CLASS_DIGEST

    def test_smith_record_digest(self):
        h = hashlib.sha256()
        for factors, n in digest_pairs():
            F = BnGPresentation(AbelianGroup(factors), n).smith_form
            cols, block = F.residual
            record = [
                factors, n, F.divisors, F.pivots, sorted(F.step.items()),
                [cols, [list(row.items()) for row in block]],
            ]
            h.update((json.dumps(record) + "\n").encode())
        assert h.hexdigest() == SMITH_RECORD_DIGEST

    def test_normal_form_is_complete(self):
        # distinct multiples of a free generator stay distinct
        P = BnGPresentation(AbelianGroup((3,)), 2)
        g = {((0,), (1,)): 1}
        seen = {reduce_class(P, {k: 2 * v for k, v in g.items()})}
        seen.add(reduce_class(P, g))
        seen.add(reduce_class(P, {}))
        assert len(seen) == 3


class TestProjection:
    def test_full_subgroup_pads_with_zeros(self):
        s = full_group_symbol((3,), [(1,), (2,)], 3, trdeg=1)
        P = BnGPresentation(AbelianGroup((3,)), 3)
        assert project_symbol(s, P) == {((0,), (1,), (2,)): 1}

    def test_proper_subgroup_maps_to_zero(self):
        G = FiniteGroup.from_invariant_factors((4,))
        H = G.subgroup(h for h in range(4) if full_subgroup(G).coords(h)[0] % 2 == 0)
        s = Symbol(
            group=G,
            subgroup=H,
            field_label=Atom(name="k", trdeg=1),
            beta=((1,),),
            ambient_n=2,
        )
        assert project_symbol(s, BnGPresentation(AbelianGroup((4,)), 2)) == {}

    def test_closure_degree_scales_coefficient(self):
        s = full_group_symbol((3,), [(1,), (2,)], 2, deg=3)
        P = BnGPresentation(AbelianGroup((3,)), 2)
        assert project_symbol(s, P) == {((1,), (2,)): 3}

    def test_construction_label_with_zero_chars_resolves(self):
        base = full_group_symbol((3,), [(1,), (1,)], 2)
        s = Symbol(
            group=base.group,
            subgroup=base.subgroup,
            field_label=ConstrA(base=base.field_label, chars=((0,),)),
            beta=((1,),),
            ambient_n=2,
        )
        P = BnGPresentation(AbelianGroup((3,)), 2)
        assert project_symbol(s, P) == {((0,), (1,)): 1}

    def test_nonzero_construction_chars_are_unresolved(self, d8, d8_parts):
        P = BnGPresentation(AbelianGroup((3,)), 2)
        base = full_group_symbol((3,), [(1,), (2,)], 2)
        s = Symbol(
            group=base.group,
            subgroup=base.subgroup,
            field_label=ConstrA(base=base.field_label, chars=((1,),)),
            beta=((1,),),
            ambient_n=2,
        )
        with pytest.raises(ProvenanceError):
            project_symbol(s, P)

    def test_nonabelian_ambient_rejected(self, d8, d8_parts):
        K = Atom(name="CxC", trdeg=0, num_components=2)
        s = Symbol(
            group=d8,
            subgroup=d8_parts["H"],
            field_label=K,
            beta=((1, 0), (0, 1)),
            ambient_n=2,
        )
        with pytest.raises(DomainError):
            project_symbol(s, BnGPresentation(AbelianGroup((2, 2)), 2))

    def test_dimension_mismatch(self):
        s = full_group_symbol((3,), [(1,), (2,)], 2)
        with pytest.raises(InputError):
            project_symbol(s, BnGPresentation(AbelianGroup((3,)), 3))

    def test_expansion_is_class_preserving(self):
        # projecting an expansion gives the same class as the input symbol
        A = AbelianGroup((5,))
        P = BnGPresentation(A, 2)
        from conftest import generating_multisets

        for beta in generating_multisets((5,), 2):
            s = full_group_symbol((5,), beta, 2)
            report = expand_b2(s, 0, 1)
            assert equal_classes(
                P, project_symbol(s, P), project_sum(report.total(), P)
            ), beta
