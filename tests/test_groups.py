import itertools
import math
import random
import tracemalloc

import pytest

import burnside.groups
from burnside import (
    AbelianGroup,
    FiniteGroup,
    InputError,
    SizeError,
    apply_dual,
    transport_characters,
)
from burnside.groups import MAX_GROUP_ORDER
from conftest import (
    abelian_subgroups_by_scan,
    char_value,
    class_info_by_conjugation,
    commutes_pairwise,
    compose_permutations,
    conjugate_by_scan,
    full_subgroup,
    is_associative_by_triples,
    least_conjugator_by_scan,
    nonassociative_triples,
    normalizer_by_scan,
    permutation_closure,
    table_by_composition,
)

D8_GENERATORS = [[1, 2, 3, 0], [2, 1, 0, 3]]
ABELIAN_FACTORS = {"z2^4": (2, 2, 2, 2), "z60": (60,), "z2xz4": (2, 4)}
PERMUTATION_GROUPS = {
    "d8": (4, D8_GENERATORS),
    "s4": (4, [[1, 2, 3, 0], [1, 0, 2, 3]]),
    "a5": (5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),
    "s5": (5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]),
    "d12": (12, [[(i + 1) % 12 for i in range(12)], [-i % 12 for i in range(12)]]),
    "s6": (6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]),
    # a repeated generator and the identity among the generators
    "s4_redundant": (4, [[1, 0, 2, 3], [0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3]]),
}
# a Latin square with identity 0 and 36 non-associative triples
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _group(request, name):
    if name in ABELIAN_FACTORS:
        return FiniteGroup.from_invariant_factors(ABELIAN_FACTORS[name])
    return request.getfixturevalue(name)


class TestConstruction:
    def test_d8_basics(self, d8, d8_parts):
        assert d8.order == 8
        assert not d8.is_abelian
        rho, sigma = d8_parts["rho"], d8_parts["sigma"]
        assert len(d8.closure([rho])) == 4
        assert len(d8.closure([sigma])) == 2
        # sigma rho sigma^-1 = rho^-1
        assert d8.conj(sigma, rho) == d8.inv(rho)

    def test_from_invariant_factors(self):
        G = FiniteGroup.from_invariant_factors((2, 4))
        assert G.order == 8
        assert G.is_abelian
        assert full_subgroup(G).structure.invariant_factors == (2, 4)

    def test_disjoint_cycles_give_cyclic_product(self):
        # (0 1)(2 3 4) generates Z/6; exercises the basis-splitting code
        G = FiniteGroup.from_permutations(5, [[1, 0, 3, 4, 2]])
        assert G.order == 6
        assert full_subgroup(G).structure.invariant_factors == (6,)

    @pytest.mark.parametrize("factors", [(2, 4), (3, 3), (12,), (2, 2, 2), (2, 6)])
    def test_invariant_factor_table_matches_add(self, factors):
        A = AbelianGroup(factors)
        elems = list(A.elements())
        index = {e: i for i, e in enumerate(elems)}
        want = tuple(tuple(index[A.add(x, y)] for y in elems) for x in elems)
        G = FiniteGroup.from_invariant_factors(factors)
        assert tuple(map(tuple, G.cayley)) == want
        assert G.identity == index[A.zero()]

    def test_group_order_bound(self):
        # checked on the order, before any element or table row is built
        with pytest.raises(SizeError):
            FiniteGroup.from_invariant_factors((MAX_GROUP_ORDER + 1,))
        with pytest.raises(SizeError):
            FiniteGroup.from_invariant_factors((10**9, 10**9))
        # a raw table on its row count, before any row is converted or
        # validated: these rows are not square
        rows = [[0]] * (MAX_GROUP_ORDER + 1)
        with pytest.raises(SizeError, match=f"{MAX_GROUP_ORDER + 1} rows exceeds bound"):
            FiniteGroup(rows)
        with pytest.raises(InputError, match="square"):
            FiniteGroup(rows[1:])

    def test_bad_permutation(self):
        with pytest.raises(InputError):
            FiniteGroup.from_permutations(2, [[0, 0]])

    def test_degree_alone_builds_nothing(self):
        # with no generators nothing of size degree is built; a generator
        # of the wrong length is refused before anything of that size
        tracemalloc.start()
        try:
            G = FiniteGroup.from_permutations(2_000_000, [])
            with pytest.raises(InputError):
                FiniteGroup.from_permutations(2_000_000, [[1, 0]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.order == 1
        assert peak < 2**20

    def test_size_bound(self, monkeypatch):
        # the bound is read when the closure runs: D8 has 8 elements
        monkeypatch.setattr(burnside.groups, "MAX_GROUP_ORDER", 4)
        with pytest.raises(SizeError):
            FiniteGroup.from_permutations(4, [[1, 2, 3, 0], [2, 1, 0, 3]])

    def test_closure_bound_on_stored_points(self, monkeypatch):
        # D8 on 4 points stores 8 elements of 4 points: 32 points
        monkeypatch.setattr(burnside.groups, "MAX_PERMUTATION_POINTS", 32)
        assert FiniteGroup.from_permutations(4, D8_GENERATORS).order == 8
        monkeypatch.setattr(burnside.groups, "MAX_PERMUTATION_POINTS", 31)
        with pytest.raises(SizeError, match="points"):
            FiniteGroup.from_permutations(4, D8_GENERATORS)

    def test_repeated_generators_are_dropped(self, monkeypatch):
        # a repeat adds no element: the same table, priced as one generator
        cycle = [*range(1, 200), 0]
        once = FiniteGroup.from_permutations(200, [cycle])
        monkeypatch.setattr(burnside.groups, "MAX_CLOSURE_IMAGES", MAX_GROUP_ORDER * 200)
        repeated = FiniteGroup.from_permutations(200, [cycle] * 50)
        assert repeated.cayley == once.cayley

    def test_closure_work_bound(self, monkeypatch):
        # D8 on 4 points: element cap MAX_GROUP_ORDER, 2 generators, 4 points
        work = MAX_GROUP_ORDER * 2 * 4
        monkeypatch.setattr(burnside.groups, "MAX_CLOSURE_IMAGES", work)
        assert FiniteGroup.from_permutations(4, D8_GENERATORS).order == 8
        monkeypatch.setattr(burnside.groups, "MAX_CLOSURE_IMAGES", work - 1)
        with pytest.raises(SizeError, match="point images"):
            FiniteGroup.from_permutations(4, D8_GENERATORS)

    def test_many_generators_refused_before_the_closure(self):
        # 20 distinct powers of a 2,000-cycle generate only Z/2000, but
        # would take 80 million point images; priced before the first
        d = 2000
        powers = [[(i + k) % d for i in range(d)] for k in range(1, 21)]
        with pytest.raises(SizeError, match="20 generators on 2000 points"):
            FiniteGroup.from_permutations(d, powers)

    def test_long_cycle_stops_at_the_point_bound(self):
        # a 20,000-cycle would store 2,000 elements of 20,000 points, 320 MB,
        # before the order bound; the point bound stops it at 200 elements
        cycle = [*range(1, 20_000), 0]
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                FiniteGroup.from_permutations(20_000, [cycle])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize(
        "perm", [[1.9, 0], [True, False], [1.0, 0], ["1", "0"]]
    )
    def test_permutation_entries_must_be_ints(self, perm):
        with pytest.raises(InputError):
            FiniteGroup.from_permutations(2, [perm])

    @pytest.mark.parametrize(
        "table",
        [[[0, 1.5], [1, 0]], [["0", "1"], ["1", "0"]], [[True, False], [False, True]]],
    )
    def test_cayley_entries_must_be_ints(self, table):
        with pytest.raises(InputError, match="integers"):
            FiniteGroup(table)

    def test_bad_cayley_tables(self):
        with pytest.raises(InputError, match="must be square"):
            FiniteGroup([[0, 1], [1]])
        with pytest.raises(InputError, match="out of range"):
            FiniteGroup([[0, 1], [1, 2]])
        # left-zero semigroup: its columns repeat
        with pytest.raises(InputError, match="not a Latin square"):
            FiniteGroup([[0, 0], [1, 1]])
        # identity 0, column 1 repeats though every row is a permutation,
        # then the transpose, whose row 1 repeats
        half_latin = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        for table in (half_latin, [list(col) for col in zip(*half_latin)]):
            with pytest.raises(InputError, match="not a Latin square"):
                FiniteGroup(table)
        # Latin, x y = -x - y mod 3: no row is 0, 1, 2
        with pytest.raises(InputError, match="no identity element"):
            FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])

    @pytest.mark.parametrize("n", range(3, 61))
    def test_monoid_that_is_no_group(self, n):
        # the left-zero semigroup on 1..n-1 with the identity 0 adjoined:
        # associative, with an identity, and no x >= 1 has an inverse
        table = [list(range(n))] + [[x] * n for x in range(1, n)]
        if n <= 12:
            assert is_associative_by_triples(table)
        with pytest.raises(InputError, match="not a Latin square"):
            FiniteGroup(table)

    def test_from_json(self):
        G = FiniteGroup.from_json(
            '{"type": "permutation", "degree": 3, "generators": [[1, 2, 0]]}'
        )
        assert G.order == 3
        H = FiniteGroup.from_json('{"type": "abelian", "invariant_factors": [2, 2]}')
        assert H.order == 4
        T = FiniteGroup.from_json('{"type": "table", "cayley": [[0, 1], [1, 0]]}')
        assert T.order == 2
        for bad in (
            "not json",
            "[1]",
            '{"type": "nope"}',
            '{"type": "table"}',
            '{"type": "abelian"}',
            '{"type": "abelian", "invariant_factors": [4, 2]}',
        ):
            with pytest.raises(InputError):
                FiniteGroup.from_json(bad)


def _oracle_table(name) -> tuple:
    if name in ABELIAN_FACTORS:
        facs = ABELIAN_FACTORS[name]
        elems = list(itertools.product(*(range(q) for q in facs)))
        add = lambda x, y: tuple((a + b) % q for a, b, q in zip(x, y, facs))
        return table_by_composition(elems, add)
    degree, gens = PERMUTATION_GROUPS[name]
    return table_by_composition(permutation_closure(degree, gens), compose_permutations)


def _built(name) -> FiniteGroup:
    if name in ABELIAN_FACTORS:
        return FiniteGroup.from_invariant_factors(ABELIAN_FACTORS[name])
    return FiniteGroup.from_permutations(*PERMUTATION_GROUPS[name])


ORACLE_GROUPS = [*PERMUTATION_GROUPS, *ABELIAN_FACTORS]


class TestAgainstOracles:
    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_table_and_inverse(self, name):
        want = _oracle_table(name)
        for G in (_built(name), FiniteGroup([list(row) for row in want])):
            assert tuple(map(tuple, G.cayley)) == want
            assert all(row.typecode == "H" for row in G.cayley)  # 2 bytes a cell
            assert G.identity == 0
            n = G.order
            assert G.inverse == tuple(
                next(h for h in range(n) if want[g][h] == 0 == want[h][g])
                for g in range(n)
            )

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_abelian_subgroups(self, name):
        G = _built(name)
        assert G._abelian_subgroups == abelian_subgroups_by_scan(G)

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_light_test_generators(self, name, monkeypatch):
        # Light's test admits an element only when closure has not reached
        # it, and each admitted element grows a subgroup of the table
        calls, closure = [], FiniteGroup.closure

        def spy(G, gens):
            calls.append((tuple(gens), closure(G, gens)))
            return calls[-1][1]

        monkeypatch.setattr(FiniteGroup, "closure", spy)
        want = _oracle_table(name)
        n = FiniteGroup([list(row) for row in want]).order
        assert calls and calls[-1][1] == frozenset(range(n))
        assert len(calls[-1][0]) <= math.floor(math.log2(n)) + 1
        reached = {0}
        for gens, closed in calls:
            assert gens[-1] not in reached and reached < closed
            assert all(want[x][y] in closed for x in closed for y in closed)
            reached = closed

    def test_s5_table_subgroups_without_commute(self):
        G = FiniteGroup([list(row) for row in _oracle_table("s5")])
        assert len(G._abelian_subgroups) == 87


def _random_loop(rng, n) -> list[list[int]]:
    """A random Latin square whose first row and column are 0..n-1, filled
    cell by cell in row-major order with backtracking."""
    sq = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(t):
        if t == len(cells):
            return True
        i, j = cells[t]
        used = set(sq[i][:j]) | {sq[r][j] for r in range(i)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            sq[i][j] = v
            if fill(t + 1):
                return True
        sq[i][j] = None
        return False

    assert fill(0)
    return sq


class TestAssociativity:
    def test_loop_is_rejected(self):
        assert len(nonassociative_triples(LOOP5)) == 36
        with pytest.raises(InputError, match="Cayley table is not associative"):
            FiniteGroup(LOOP5)

    def test_random_loops_match_triples(self):
        rng = random.Random(20240601)
        outcomes = set()
        for _ in range(500):
            sq = _random_loop(rng, rng.randint(3, 7))
            associative = is_associative_by_triples(sq)
            outcomes.add(associative)
            if associative:
                assert FiniteGroup(sq).order == len(sq)
            else:
                with pytest.raises(InputError, match="not associative"):
                    FiniteGroup(sq)
        assert outcomes == {True, False}

    # S6 is left out: its 720^3 triples take minutes
    @pytest.mark.parametrize("name", [g for g in ORACLE_GROUPS if g != "s6"])
    def test_group_tables_are_associative(self, name):
        table = _oracle_table(name)
        assert is_associative_by_triples(table)
        assert FiniteGroup([list(row) for row in table]).order == len(table)


class TestSubgroups:
    def test_closure_and_normalizer(self, d8, d8_parts):
        rho = d8_parts["rho"]
        cyc = d8.closure([rho])
        assert len(cyc) == 4
        # <rho> is normal in D8
        assert len(d8.normalizer(cyc)) == 8
        # a reflection subgroup has normalizer of order 4
        assert len(d8.normalizer(d8.closure([d8_parts["sigma"]]))) == 4

    def test_d8_abelian_subgroup_classes(self, d8):
        classes = d8.abelian_subgroup_classes()
        # 1, Z(=<rho^2>), two reflection classes, <rho>, two Klein groups
        assert [len(c.elements) for c in classes] == [1, 2, 2, 2, 4, 4, 4]
        structures = sorted(
            c.structure.invariant_factors for c in classes if len(c.elements) == 4
        )
        assert structures == [(2, 2), (2, 2), (4,)]

    def test_class_representative_consistency(self, d8):
        for sub in d8._abelian_subgroups:
            rep, g = d8.class_representative(sub)
            assert tuple(sorted(d8.conj(g, h) for h in sub)) == rep
            # the representative is a fixed point of the reduction
            rep2, g2 = d8.class_representative(rep)
            assert rep2 == rep and g2 == d8.identity

    @pytest.mark.parametrize(
        "name,count",
        # D8: 1, five of order 2, <rho> and two Klein groups.  S4: 1, nine of
        # order 2, four of order 3, three cyclic and four Klein groups of
        # order 4.  A5: 1, fifteen of order 2, ten of order 3, six of order 5
        # and five Klein groups.  (Z/2)^4: the F_2-subspaces, 1 + 15 + 35 +
        # 15 + 1.  Z/60: one subgroup per divisor of 60.
        [("d8", 9), ("s4", 21), ("a5", 37), ("z2^4", 67), ("z60", 12)],
    )
    def test_abelian_subgroup_counts(self, request, name, count):
        assert len(_group(request, name)._abelian_subgroups) == count

    @pytest.mark.parametrize("name", ["d8", "s4", "a5", "z2xz4"])
    def test_class_data_matches_scan(self, request, name):
        G = _group(request, name)
        for sub in G._abelian_subgroups:
            rep, conjugator = G.class_representative(sub)
            assert rep == min(conjugate_by_scan(G, g, sub) for g in range(G.order))
            assert conjugator == least_conjugator_by_scan(G, sub, rep)
            assert G.normalizer(sub) == normalizer_by_scan(G, sub)
            assert G.subgroup(sub).normalizer == normalizer_by_scan(G, sub)

    @pytest.mark.parametrize(
        "factors", [(12,), (2, 6), (2, 2, 4), (1000,)], ids=str
    )
    def test_abelian_class_data_matches_conjugation_pass(self, monkeypatch, factors):
        # every abelian subgroup is its own class, normalized by all of G:
        # the class queries conjugate nothing and agree with the general pass
        G = FiniteGroup.from_invariant_factors(factors)
        monkeypatch.setattr(FiniteGroup, "conj", None)
        for sub, (rep, conjugator, normalizer) in class_info_by_conjugation(G).items():
            assert G.class_representative(sub) == (rep, conjugator)
            assert G.normalizer(sub) == normalizer

    def test_abelian_class_data_on_relabelled_table(self):
        # Z/6 with its elements relabelled, so that the identity is not 0
        perm = [3, 5, 0, 1, 4, 2]
        inv = [perm.index(x) for x in range(6)]
        table = [[perm[(inv[a] + inv[b]) % 6] for b in range(6)] for a in range(6)]
        G = FiniteGroup(table)
        assert G.identity == 3 and G.is_abelian
        for sub, (rep, conjugator, normalizer) in class_info_by_conjugation(G).items():
            assert G.class_representative(sub) == (rep, conjugator)
            assert G.normalizer(sub) == normalizer

    def test_abelian_class_queries_enumerate_nothing(self, monkeypatch):
        # (Z/2)^8 has more abelian subgroups than MAX_ABELIAN_SUBGROUPS, and
        # its class queries never list them
        G = FiniteGroup.from_invariant_factors((2,) * 8)

        def refuse(self):
            raise AssertionError("abelian subgroups enumerated")

        monkeypatch.setattr(FiniteGroup, "_abelian_subgroups", property(refuse))
        whole = tuple(range(G.order))
        for sub in [(0,), (0, 1), (0, 1, 2, 3), G.closure([5, 6, 96]), whole]:
            sub = tuple(sorted(sub))
            assert G.class_representative(sub) == (sub, 0)
            assert G.normalizer(sub) == whole
            assert G.subgroup(sub).canonical_maps[0] is G.subgroup(sub)
        with pytest.raises(InputError):
            G.normalizer([0, 1, 2])  # not closed

    @pytest.mark.parametrize("name", ["d8", "s4", "z2xz4"])
    def test_class_data_matches_conjugation_pass(self, request, name):
        G = _group(request, name)
        assert G._class_info == class_info_by_conjugation(G)

    def test_abelian_group_subgroups_skip_pairwise_test(self, monkeypatch):
        # an abelian group accepts any closed set without enumerating classes
        G = FiniteGroup.from_invariant_factors((2, 30))

        def refuse(self):
            raise AssertionError("abelian subgroups enumerated")

        monkeypatch.setattr(FiniteGroup, "_abelian_subgroups", property(refuse))
        assert len(G.subgroup(range(G.order)).elements) == 60
        assert len(G.subgroup(G.closure([7])).elements) == len(G.closure([7])) == 30

    def test_is_abelian_matches_pairwise_test(self, request):
        for name in ("d8", "s4", "a5", "z2^4", "z60"):
            G = _group(request, name)
            assert G.is_abelian == commutes_pairwise(G, range(G.order))
            assert G.is_abelian is G.__dict__["is_abelian"]  # cached

    def test_class_data_conjugates_once_per_class(self, monkeypatch):
        # one pass over G per class: |G| conjugations per element of the
        # representative, and none for the other members of its orbit
        G = FiniteGroup.from_permutations(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])
        assert G.order == 120
        conj, calls = FiniteGroup.conj, []

        def counting_conj(self, g, h):
            calls.append(None)
            return conj(self, g, h)

        monkeypatch.setattr(FiniteGroup, "conj", counting_conj)
        G._class_info
        monkeypatch.undo()
        assert len(calls) <= G.order * sum(
            len(rep.elements) for rep in G.abelian_subgroup_classes()
        )

    def test_normalizer_needs_abelian_subgroup(self, d8, d8_parts):
        with pytest.raises(InputError):
            d8.normalizer(range(8))  # not abelian
        with pytest.raises(InputError):
            d8.normalizer([d8.identity, d8_parts["rho"]])  # not closed

    def test_abelian_subgroup_bound(self, monkeypatch):
        # D8 has 9 abelian subgroups: a bound of 9 admits them, 8 does not
        monkeypatch.setattr("burnside.groups.MAX_ABELIAN_SUBGROUPS", 9)
        assert len(FiniteGroup.from_permutations(4, D8_GENERATORS)._abelian_subgroups) == 9
        monkeypatch.setattr("burnside.groups.MAX_ABELIAN_SUBGROUPS", 8)
        with pytest.raises(SizeError):
            FiniteGroup.from_permutations(4, D8_GENERATORS)._abelian_subgroups
        # a nonabelian group reads abelian-ness off the class enumeration
        with pytest.raises(SizeError):
            FiniteGroup.from_permutations(4, D8_GENERATORS).subgroup([0])

    def test_subgroup_rejects_bad_input(self, d8, d8_parts):
        rho = d8_parts["rho"]
        with pytest.raises(InputError):
            d8.subgroup([d8.identity, rho])  # not closed
        with pytest.raises(InputError, match="not abelian"):
            d8.subgroup(range(8))
        with pytest.raises(InputError):
            d8.subgroup([])

    @pytest.mark.parametrize("elems", [[0, 2], [-1, 0, 1]])
    def test_subgroup_rejects_indices_out_of_range(self, elems):
        # [-1, 0, 1] would pass the closure test by negative indexing
        G = FiniteGroup([[0, 1], [1, 0]])
        with pytest.raises(InputError, match=r"0\.\.1"):
            G.subgroup(elems)

    @pytest.mark.parametrize(
        "elems", [[0.0, 1.0], [0, 1.0], ["a"], [True, 0], [[0]]]
    )
    def test_subgroup_rejects_non_integer_elements(self, elems):
        # [0.0, 1.0] equals the key of the whole group, so it would skip
        # the closure test and be interned with float elements
        G = FiniteGroup([[0, 1], [1, 0]])
        with pytest.raises(InputError, match="integers"):
            G.subgroup(elems)
        assert G._subgroup_refs == {}
        H = G.subgroup([0, 1])
        assert H.elements == (0, 1) and all(type(g) is int for g in H.elements)
        assert H.structure.invariant_factors == (2,)
        # once interned, equal float keys are still refused
        with pytest.raises(InputError, match="integers"):
            G.subgroup([1.0, 0.0])

    def test_subgroup_is_interned(self, d8, d8_parts):
        # one object per element set, whatever the order or repetition
        H = d8_parts["H"]
        elems = list(H.elements)
        assert d8.subgroup(reversed(elems)) is H
        assert d8.subgroup(elems + elems[:2]) is H

    def test_subgroup_closure_test_matches_bfs(self, d8):
        # every nonempty subset of D8 is accepted exactly when the BFS
        # closure of its elements is itself, and refused as not abelian
        # exactly when it is closed and two of its elements do not commute
        for k in range(1, d8.order + 1):
            for elems in itertools.combinations(range(d8.order), k):
                closed = d8.closure(elems) == frozenset(elems)
                try:
                    d8.subgroup(elems)
                    accepted, abelian = True, True
                except InputError as exc:  # told apart by its message
                    accepted = str(exc) == "subgroup is not abelian"  # closed
                    abelian = False if accepted else None
                assert accepted == closed, elems
                if closed:
                    assert abelian == commutes_pairwise(d8, elems), elems

    def test_structure_and_coords(self, d8, d8_parts):
        H = d8_parts["H"]
        assert H.structure.invariant_factors == (2, 2)
        # coords is a bijection onto the structure's elements
        assert sorted(map(H.coords, H.elements)) == list(H.structure.elements())
        rho_sub = d8.subgroup(d8.closure([d8_parts["rho"]]))
        assert rho_sub.structure.invariant_factors == (4,)
        assert rho_sub.coords(d8_parts["rho2"]) in ((2,),)

    def test_char_value_bilinearity(self, d8, d8_parts):
        H = d8_parts["H"]
        A = H.structure
        for a in A.elements():
            for h in H.elements:
                for k in H.elements:
                    lhs = char_value(H, a, d8.mul(h, k))
                    rhs = (char_value(H, a, h) + char_value(H, a, k)) % A.exponent
                    assert lhs == rhs


class TestCharacterAction:
    def test_identity_acts_trivially(self, d8, d8_parts):
        H = d8_parts["H"]
        mat = transport_characters(H, H, d8.identity)
        assert mat == [[1, 0], [0, 1]]

    def test_pairing_compatibility(self, d8):
        # <action(g) a, h> = <a, g^-1 h g> for every normalizing g
        for H in d8.abelian_subgroup_classes():
            A = H.structure
            for g in H.normalizer:
                mat = transport_characters(H, H, g)
                for a in A.elements():
                    ga = apply_dual(mat, A.invariant_factors, a)
                    for h in H.elements:
                        assert char_value(H, ga, h) == char_value(
                            H, a, d8.conj(d8.inv(g), h)
                        )

    def test_contravariant_composition(self, d8, d8_parts):
        H = d8_parts["H"]
        A = H.structure
        facs = A.invariant_factors
        for g1 in H.normalizer:
            for g2 in H.normalizer:
                m12 = transport_characters(H, H, d8.mul(g1, g2))
                m1 = transport_characters(H, H, g1)
                m2 = transport_characters(H, H, g2)
                for a in A.elements():
                    assert apply_dual(m12, facs, a) == apply_dual(
                        m1, facs, apply_dual(m2, facs, a)
                    )

    def test_rotation_mixes_klein_characters(self, d8, d8_parts):
        # conjugating the Klein subgroup <rho^2, sigma> by rho swaps the
        # two reflections, which on characters sends a_1 to a_1 + a_2
        H = d8_parts["H"]
        rho = d8_parts["rho"]
        mat = transport_characters(H, H, rho)
        images = {
            a: apply_dual(mat, H.structure.invariant_factors, a)
            for a in H.structure.elements()
        }
        assert sorted(images.values()) == sorted(images.keys())  # bijective
        assert images[(0, 0)] == (0, 0)
        assert len([a for a in images if images[a] != a]) > 0


class TestTransport:
    def test_transport_between_conjugates(self, d8, d8_parts):
        sigma, rho = d8_parts["sigma"], d8_parts["rho"]
        src = d8.subgroup(d8.closure([sigma]))
        dst = d8.subgroup(d8.conj(rho, h) for h in src.elements)
        assert src != dst
        mat = transport_characters(src, dst, rho)
        A, B = src.structure, dst.structure
        for a in A.elements():
            ta = apply_dual(mat, B.invariant_factors, a)
            for h in dst.elements:
                assert char_value(dst, ta, h) == char_value(
                    src, a, d8.conj(d8.inv(rho), h)
                )
