import itertools

import pytest

from burnside import (
    Atom,
    ConstrA,
    FiniteGroup,
    InputError,
    Symbol,
    SymbolSum,
    apply_dual,
    canonicalize_symbol,
    conjugate_symbol,
    construction_a,
    restrict_character,
    transport_characters,
)
from burnside.symbols import (
    field_from_json_obj,
    field_to_json_obj,
    normalize_chars,
)
from conftest import (
    SYMBOL_ORACLE_GROUPS,
    _moved_characters,
    canonicalize_reference,
    char_value,
    conjugate_by_scan,
    dihedral_d12,
    full_group_symbol,
    full_subgroup,
    least_conjugator_by_scan,
    normalizer_by_scan,
    stratum_symbols,
)


def d8_klein_symbol(d8, d8_parts, beta=((1, 0), (0, 1))):
    K = Atom(name="CxC", trdeg=0, alg_closure_degree=1, num_components=2)
    return Symbol(
        group=d8,
        subgroup=d8_parts["H"],
        field_label=K,
        beta=beta,
        ambient_n=2,
    )


class TestFieldLabels:
    def test_atom_validation(self):
        with pytest.raises(InputError, match="trdeg must be nonnegative"):
            Atom(name="k", trdeg=-1)
        with pytest.raises(InputError, match="must be positive"):
            Atom(name="k", trdeg=0, alg_closure_degree=0)

    def test_constr_a_trdeg(self):
        base = Atom(name="k", trdeg=1)
        lab = ConstrA(base=base, chars=((1,), (0,)))
        assert lab.trdeg == 3

    def test_normalize_chars(self):
        from burnside import AbelianGroup

        A = AbelianGroup((5,))
        # sign normalization picks the lesser of c and -c, then sorts
        assert normalize_chars(A, [(4,), (2,)]) == ((1,), (2,))
        assert normalize_chars(A, [(3,)]) == ((2,),)

    def test_json_roundtrip(self):
        for lab in (
            Atom(name="k", trdeg=2, alg_closure_degree=3, num_components=2),
            ConstrA(base=Atom(name="k", trdeg=0), chars=((1, 2),)),
        ):
            assert field_from_json_obj(field_to_json_obj(lab)) == lab
        with pytest.raises(InputError):
            field_from_json_obj({"nope": {}})
        with pytest.raises(InputError):
            field_from_json_obj({"atom": {"name": "k"}})


class TestSymbolInvariants:
    def test_valid_symbol(self, d8, d8_parts):
        s = d8_klein_symbol(d8, d8_parts)
        assert s.beta == ((1, 0), (0, 1))

    def test_weight_count_mismatch(self, d8, d8_parts):
        with pytest.raises(InputError, match="weight count"):
            Symbol(
                group=d8,
                subgroup=d8_parts["H"],
                field_label=Atom(name="k", trdeg=0),
                beta=((1, 0),),
                ambient_n=2,
            )

    def test_zero_weight_rejected(self, d8, d8_parts):
        with pytest.raises(InputError, match="nonzero"):
            d8_klein_symbol(d8, d8_parts, beta=((0, 0), (1, 1)))

    def test_non_generating_weights_rejected(self, d8, d8_parts):
        K = Atom(name="k", trdeg=0)
        with pytest.raises(InputError, match="generate"):
            Symbol(
                group=d8,
                subgroup=d8_parts["H"],
                field_label=K,
                beta=((1, 0), (1, 0)),
                ambient_n=2,
            )

    def test_unreduced_non_generating_weights_rejected(self, d8, d8_parts):
        # (3, 0) and (1, 2) both reduce to (1, 0) on Z/2 x Z/2
        with pytest.raises(InputError, match="generate"):
            d8_klein_symbol(d8, d8_parts, beta=((3, 0), (1, 2)))

    @pytest.mark.parametrize("beta", [((1, 0, 0), (0, 1)), ((1,), (0, 1))])
    def test_wrong_length_weights_rejected(self, d8, d8_parts, beta):
        with pytest.raises(InputError, match="length"):
            d8_klein_symbol(d8, d8_parts, beta=beta)

    def test_subgroup_of_another_group_rejected(self, s4, d8_parts):
        # the Klein subgroup of D8 named with S4 as its group
        with pytest.raises(InputError, match="another group"):
            Symbol(
                group=s4,
                subgroup=d8_parts["H"],
                field_label=Atom(name="k", trdeg=0),
                beta=((1, 0), (0, 1)),
                ambient_n=2,
            )

    def test_weights_reduced_mod_factors(self):
        s = full_group_symbol((3,), [(4,), (2,)], 2)
        assert s.beta == ((1,), (2,))

    def test_json_roundtrip(self, d8, d8_parts):
        s = d8_klein_symbol(d8, d8_parts)
        assert Symbol.from_json(d8, __import__("json").dumps(s.to_json_obj())) == s
        with pytest.raises(InputError):
            Symbol.from_json(d8, '{"subgroup": [0]}')
        with pytest.raises(InputError):
            Symbol.from_json(d8, "oops")

    @pytest.mark.parametrize(
        "elems", [5, None, "01", {"0": 1}, [[0]], [0, 1.0], [0, True], [0, 8], [-1, 0], []],
        ids=["int", "null", "string", "object", "nested", "float", "bool", "past-order",
             "negative", "empty"],
    )
    def test_json_subgroup_list_checked_by_subgroup(self, d8, elems):
        # the list is handed to FiniteGroup.subgroup as it stands, so a bad
        # one gets the message the subgroup check gives it
        field = {"atom": {"name": "k", "trdeg": 0}}
        obj = {"subgroup": elems, "field": field, "beta": [[1]], "n": 1}
        with pytest.raises(InputError) as want:
            d8.subgroup(elems)
        with pytest.raises(InputError) as got:
            Symbol.from_json_obj(d8, obj)
        assert str(got.value) == str(want.value)

    def test_symbols_over_distinct_groups_differ(self):
        # subgroups are interned per group object: one table built twice
        # gives two symbols with equal fields that are two dict keys
        table = FiniteGroup.from_invariant_factors((3,)).cayley
        s, t = (
            Symbol(
                group=G,
                subgroup=full_subgroup(G),
                field_label=Atom(name="k", trdeg=0),
                beta=((1,), (2,)),
                ambient_n=2,
            )
            for G in (FiniteGroup(table), FiniteGroup(table))
        )
        assert s.to_json_obj() == t.to_json_obj()
        assert s != t
        assert s == Symbol.from_json_obj(s.group, s.to_json_obj())
        keys = {s: 1, t: 2}
        assert len(keys) == 2 and keys[s] == 1 and keys[t] == 2


class TestSymbolSum:
    def test_cancellation(self):
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        x = SymbolSum([(s, 1), (s, -1)])
        assert x == SymbolSum()

    @pytest.mark.parametrize("coeff", [1.5, 1.0, "x", None, True])
    def test_non_integer_coefficient_is_an_input_error(self, coeff):
        # no coercion: 1.5 would silently become 1, "x" a bare ValueError
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        with pytest.raises(InputError, match="not an integer"):
            SymbolSum({s: coeff})

    def test_merge_of_conjugate_terms(self, d8, d8_parts):
        s = d8_klein_symbol(d8, d8_parts)
        t = conjugate_symbol(s, d8_parts["rho"])
        x = SymbolSum.of(s, t)
        # the two symbols are conjugate, so they merge into one class
        assert len(x) == 1
        assert list(x.terms.values()) == [2]

    def test_combine(self):
        # 2 s - (s + t): the constructor merges the coefficients of one key
        s = full_group_symbol((3,), [(1,), (1,)], 2)
        t = full_group_symbol((3,), [(1,), (2,)], 2)
        x = SymbolSum([(s, 2), (s, -1), (t, -1)])
        assert x.terms == {
            canonicalize_symbol(s): 1,
            canonicalize_symbol(t): -1,
        }


class TestCanonicalization:
    def test_idempotent_on_all_d8_symbols(self, d8):
        K = Atom(name="k", trdeg=0)
        count = 0
        for H in d8.abelian_subgroup_classes():
            A = H.structure
            if A.order == 1:
                continue
            for a in A.elements():
                for b in A.elements():
                    if not any(a) or not any(b):
                        continue
                    if len(A.subgroup_generated([a, b])) != A.order:
                        continue
                    s = Symbol(
                        group=d8,
                        subgroup=H,
                        field_label=K,
                        beta=(a, b),
                        ambient_n=2,
                    )
                    c = canonicalize_symbol(s)
                    assert canonicalize_symbol(c) == c
                    count += 1
        assert count > 0

    def test_conjugation_invariance(self, d8, d8_parts):
        s = d8_klein_symbol(d8, d8_parts)
        for g in range(d8.order):
            assert canonicalize_symbol(conjugate_symbol(s, g)) == canonicalize_symbol(s)

    def test_moves_to_class_representative(self, d8, d8_parts):
        sigma, rho = d8_parts["sigma"], d8_parts["rho"]
        src = d8.subgroup(d8.closure([d8.conj(rho, sigma)]))
        rep, _ = d8.class_representative(src.elements)
        K = Atom(name="k", trdeg=1)
        s = Symbol(
            group=d8, subgroup=src, field_label=K, beta=((1,),), ambient_n=2
        )
        assert canonicalize_symbol(s).subgroup.elements == rep


class TestCachedSubgroupData:
    """The per-subgroup caches that canonicalization reads, against scans
    of the whole group on every abelian subgroup."""

    @pytest.mark.parametrize("name", SYMBOL_ORACLE_GROUPS)
    def test_canonical_maps(self, name):
        """R is the least conjugate, a representative's first map is the
        identity, and the maps, as functions on every character, are the
        transport by a conjugator followed by each element of N(R)."""
        G = SYMBOL_ORACLE_GROUPS[name]()
        for elems in G._abelian_subgroups:
            H = G.subgroup(elems)
            A = H.structure
            rep = min(conjugate_by_scan(G, g, elems) for g in range(G.order))
            R, maps = H.canonical_maps
            assert R.elements == rep
            if rep == elems:
                r = A.rank
                assert maps[0] == tuple(
                    tuple(int(i == k) for k in range(r)) for i in range(r)
                )
            chars = list(A.elements())
            facs = R.structure.invariant_factors
            got = [tuple(apply_dual(mat, facs, c) for c in chars) for mat in maps]
            g = least_conjugator_by_scan(G, elems, rep)
            moved = _moved_characters(G, H, R, g, chars)
            want = {
                tuple(_moved_characters(G, R, R, x, moved))
                for x in normalizer_by_scan(G, rep)
            }
            assert len(got) == len(want) and set(got) == want, elems

    @pytest.mark.parametrize("name", ["S4", "D12"])
    def test_canonical_maps_match_per_element_transport(self, name, s4):
        """One transport per coset of R's centralizer in N(R) gives the
        tuple that one transport per element of N(R) gives, in its order."""
        G = s4 if name == "S4" else dihedral_d12()
        for elems in G._abelian_subgroups:
            H = G.subgroup(elems)
            rep, g = G.class_representative(elems)
            R = G.subgroup(rep)
            mats = (transport_characters(H, R, G.mul(x, g)) for x in R.normalizer)
            want = tuple(dict.fromkeys(tuple(map(tuple, mat)) for mat in mats))
            assert H.canonical_maps == (R, want), elems

    @pytest.mark.parametrize("name", SYMBOL_ORACLE_GROUPS)
    def test_canonical_form_matches_scan(self, name):
        symbols = stratum_symbols(SYMBOL_ORACLE_GROUPS[name]())
        assert symbols
        for s in symbols:
            assert canonicalize_symbol(s) == canonicalize_reference(s), s.to_json_obj()


class TestConstructionA:
    def test_kernel_is_honest(self, d8, d8_parts):
        H, K = d8_parts["H"], Atom(name="k", trdeg=0)
        Hbar, Kbar = construction_a(H, K, [(1, 1)])
        # oracle: elements on which the character vanishes
        expected = [h for h in H.elements if char_value(H, (1, 1), h) == 0]
        assert list(Hbar.elements) == sorted(expected)
        assert Kbar.chars == ((1, 1),)
        assert Kbar.trdeg == 1
        # every abelian subgroup class of the oracle groups, one and two
        # characters; their subgroups have no two unequal invariant factors,
        # so Z/2 x Z/6 is added, where the scaling e / n_i is not 1
        groups = [make() for make in SYMBOL_ORACLE_GROUPS.values()]
        for G in [*groups, FiniteGroup.from_invariant_factors((2, 6))]:
            for H in G.abelian_subgroup_classes():
                chars = list(H.structure.elements())
                for D in [*((c,) for c in chars), *itertools.product(chars, repeat=2)]:
                    kernel = [h for h in H.elements if all(char_value(H, c, h) == 0 for c in D)]
                    assert construction_a(H, K, D)[0].elements == tuple(kernel), D

    def test_empty_characters_keep_subgroup(self, d8, d8_parts):
        H = d8_parts["H"]
        Hbar, Kbar = construction_a(H, Atom(name="k", trdeg=0), [])
        assert Hbar == H
        assert Kbar == ConstrA(base=Atom(name="k", trdeg=0), chars=())

    def test_normalizer_recomputed_in_ambient_group(self, d8, d8_parts):
        H = d8_parts["H"]
        Hbar, _ = construction_a(H, Atom(name="k", trdeg=0), [(0, 1)])
        assert Hbar.normalizer == normalizer_by_scan(d8, Hbar.elements)


class TestRestriction:
    def test_pairing_oracle(self, d8):
        # the restricted character evaluates identically on the subgroup
        for H in d8.abelian_subgroup_classes():
            A = H.structure
            e = A.exponent
            for c in A.elements():
                ker = [h for h in H.elements if char_value(H, c, h) == 0]
                Hbar = d8.subgroup(ker)
                ebar = Hbar.structure.exponent
                for a in A.elements():
                    res = restrict_character(H, Hbar, a)
                    for h in Hbar.elements:
                        assert (
                            char_value(Hbar, res, h) * e
                            == char_value(H, a, h) * ebar
                        ), (c, a, h)

    def test_kernel_restriction_detects_span(self, s4):
        # duality, the blow-up's admissibility test: x lies in the span of D
        # exactly when its restriction to the joint kernel of D is zero
        label = Atom(name="k", trdeg=0)
        for sub in s4._abelian_subgroups:
            H = s4.subgroup(sub)
            chars = list(H.structure.elements())
            lists = [*((c,) for c in chars), *itertools.product(chars, repeat=2)]
            for D in lists:
                K = construction_a(H, label, D)[0]
                span = H.structure.subgroup_generated(D)
                for x in chars:
                    vanishes = not any(restrict_character(H, K, x))
                    assert (x in span) == vanishes, (sub, D, x)
