"""Symbol generators of the equivariant symbol group and their arithmetic.

A symbol is a triple (abelian subgroup, formal field label, weight
multiset) inside an ambient finite group, at a fixed ambient dimension.
Field labels are syntactic terms: an atom carrying transcendence-degree
and algebraic-closure-degree metadata, or a construction node recording
which characters were fed to the kernel construction.  Equality of labels
is structural; no attempt is made to decide isomorphism of the underlying
algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .abelian import AbelianGroup, apply_dual, generates_reduced, transport_characters
from .errors import InputError, is_int_rows, load_json
from .groups import FiniteGroup, SubgroupRef


@dataclass(frozen=True)
class Atom:
    """A leaf field label: a named function field with inert metadata."""

    name: str
    trdeg: int
    alg_closure_degree: int = 1
    num_components: int = 1

    def __post_init__(self):
        if self.trdeg < 0:
            raise InputError("bad atom field label: trdeg must be nonnegative")
        if self.alg_closure_degree < 1 or self.num_components < 1:
            raise InputError(
                "bad atom field label: degree and component count must be positive"
            )


@dataclass(frozen=True)
class ConstrA:
    """Label for the field produced by the kernel construction.

    Records the base label and the characters the construction was applied
    to; each adjoined parameter raises the transcendence degree by one.
    Characters are stored sign-normalized and sorted, so labels built from
    the same character subgroup data compare equal.
    """

    base: "FieldLabel"
    chars: tuple[tuple[int, ...], ...]

    @property
    def trdeg(self) -> int:
        return self.base.trdeg + len(self.chars)

    @property
    def alg_closure_degree(self) -> int:
        """The base's degree while every character is zero; a nonzero one
        leaves the degree unresolved."""
        if any(map(any, self.chars)):
            raise InputError(
                "algebraic closure degree is unresolved for a construction "
                "label with nonzero characters"
            )
        return self.base.alg_closure_degree


FieldLabel = Atom | ConstrA


def normalize_chars(A: AbelianGroup, chars) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a character list: sign-normalized, sorted."""
    out = []
    for c in chars:
        c = A.reduce(c)
        out.append(min(c, A.neg(c)))
    return tuple(sorted(out))


def field_to_json_obj(f: FieldLabel):
    if isinstance(f, Atom):
        return {
            "atom": {
                "name": f.name,
                "trdeg": f.trdeg,
                "deg": f.alg_closure_degree,
                "components": f.num_components,
            }
        }
    return {
        "constr_a": {
            "base": field_to_json_obj(f.base),
            "chars": [list(c) for c in f.chars],
        }
    }


def field_from_json_obj(obj) -> FieldLabel:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError("field label must be an object with one key")
    if "atom" in obj:
        a = obj["atom"]
        if not isinstance(a, dict) or not isinstance(a.get("name"), str):
            raise InputError('atom field label needs a string "name"')
        ints = (a.get("trdeg"), a.get("deg", 1), a.get("components", 1))
        if any(type(x) is not int for x in ints):
            raise InputError('atom "trdeg", "deg" and "components" must be integers')
        return Atom(a["name"], *ints)
    if "constr_a" in obj:
        node = obj["constr_a"]
        if not isinstance(node, dict) or not is_int_rows(node.get("chars")):
            raise InputError('constr_a field label needs integer arrays "chars"')
        base = field_from_json_obj(node.get("base"))
        return ConstrA(base=base, chars=tuple(tuple(c) for c in node["chars"]))
    raise InputError('field label key must be "atom" or "constr_a"')


@dataclass(frozen=True)
class Symbol:
    """A generator symbol inside an ambient group at dimension ``ambient_n``."""

    group: FiniteGroup = field(compare=False)
    subgroup: SubgroupRef
    field_label: FieldLabel
    beta: tuple[tuple[int, ...], ...]
    ambient_n: int

    def __post_init__(self):
        if self.group is not self.subgroup.group:
            raise InputError("subgroup belongs to another group")
        A = self.subgroup.structure
        beta = tuple(A.reduce(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if len(beta) != self.ambient_n - self.field_label.trdeg:
            raise InputError(
                f"weight count {len(beta)} != n - trdeg = "
                f"{self.ambient_n - self.field_label.trdeg}"
            )
        if any(all(x == 0 for x in b) for b in beta):
            raise InputError("weights must be nonzero characters")
        # the weights were just reduced: test without validation
        if not generates_reduced(A, beta):
            raise InputError("weights do not generate the character group")

    def to_json_obj(self):
        return {
            "subgroup": list(self.subgroup.elements),
            "field": field_to_json_obj(self.field_label),
            "beta": [list(b) for b in self.beta],
            "n": self.ambient_n,
        }

    @staticmethod
    def from_json_obj(group: FiniteGroup, obj) -> "Symbol":
        if not isinstance(obj, dict):
            raise InputError("symbol JSON must be an object")
        for key in ("subgroup", "field", "beta", "n"):
            if key not in obj:
                raise InputError(f'symbol JSON is missing "{key}"')
        # FiniteGroup.subgroup checks the element list
        if not is_int_rows(obj["beta"]) or type(obj["n"]) is not int:
            raise InputError('"beta" must hold integer arrays and "n" an integer')
        return Symbol(
            group=group,
            subgroup=group.subgroup(obj["subgroup"]),
            field_label=field_from_json_obj(obj["field"]),
            beta=tuple(tuple(b) for b in obj["beta"]),
            ambient_n=obj["n"],
        )

    @staticmethod
    def from_json(group: FiniteGroup, text: str) -> "Symbol":
        return Symbol.from_json_obj(group, load_json(text, "symbol JSON"))


class SymbolSum:
    """A finite integer combination of symbols, each key canonicalized by
    the constructor."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Symbol, int] = {}
        if terms:
            for sym, coeff in (
                terms.items() if isinstance(terms, dict) else terms
            ):
                sym = canonicalize_symbol(sym)
                if type(coeff) is not int:  # booleans too, as in reduce_class
                    raise InputError(f"coefficient {coeff!r} is not an integer")
                if coeff:
                    data[sym] = data.get(sym, 0) + coeff
                    if not data[sym]:
                        del data[sym]
        self.terms = data

    @staticmethod
    def of(*symbols: Symbol) -> "SymbolSum":
        return SymbolSum([(s, 1) for s in symbols])

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __eq__(self, other):
        return isinstance(other, SymbolSum) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"SymbolSum({len(self.terms)} terms)"

    def to_json_obj(self):
        return [
            {"symbol": sym.to_json_obj(), "coeff": coeff}
            for sym, coeff in self.items()
        ]


def _term_sort_key(sym: Symbol):
    return (sym.subgroup.elements, sym.beta, _field_sort_key(sym.field_label))


def _field_sort_key(f: FieldLabel):
    if isinstance(f, Atom):
        return (0, f.name, f.trdeg, f.alg_closure_degree, f.num_components)
    return (1, _field_sort_key(f.base), f.chars)


def conjugate_symbol(s: Symbol, g: int) -> Symbol:
    """Transport a symbol along conjugation by ``g`` (field label kept)."""
    G = s.group
    dst = G.subgroup(G.conj(g, h) for h in s.subgroup.elements)
    mat = transport_characters(s.subgroup, dst, g)
    facs = dst.structure.invariant_factors
    return Symbol(
        group=G,
        subgroup=dst,
        field_label=s.field_label,
        beta=tuple(apply_dual(mat, facs, b) for b in s.beta),
        ambient_n=s.ambient_n,
    )


def canonicalize_symbol(s: Symbol) -> Symbol:
    """Canonical representative of a symbol under the conjugation relations.

    The subgroup is replaced by its conjugacy-class representative, and the
    weight multiset by the lexicographically least of its images under the
    dual maps of ``SubgroupRef.canonical_maps``: transport by the least
    conjugator followed by each element of the representative's normalizer.
    Idempotent.
    """
    H, maps = s.subgroup.canonical_maps
    facs = H.structure.invariant_factors
    best = min(
        tuple(sorted(apply_dual(mat, facs, b) for b in s.beta)) for mat in maps
    )
    if best == s.beta and H is s.subgroup:
        return s
    return Symbol(
        group=s.group,
        subgroup=H,
        field_label=s.field_label,
        beta=best,
        ambient_n=s.ambient_n,
    )


def construction_a(H: SubgroupRef, K: FieldLabel, chars) -> tuple[SubgroupRef, ConstrA]:
    """Kernel construction: cut ``H`` down to the joint kernel of ``chars``.

    The returned subgroup is the honest intersection of kernels inside
    ``H.group`` (with its normalizer recomputed there); the field part is
    purely formal and only records the construction.  A character a takes
    the value sum a_i x_i e / n_i in Z/e at the element of coordinates x.
    """
    A = H.structure
    chars = [A.reduce(c) for c in chars]
    e = A.exponent
    scaled = [[a * (e // n) for a, n in zip(c, A.invariant_factors)] for c in chars]
    Hbar = H.group.subgroup(
        h for h in H.elements if not any(sum(map(mul, c, H.coords(h))) % e for c in scaled)
    )
    Kbar = ConstrA(base=K, chars=normalize_chars(A, chars))
    return Hbar, Kbar


def restrict_character(H: SubgroupRef, Hbar: SubgroupRef, char) -> tuple[int, ...]:
    """Restriction of a character of ``H`` to a subgroup ``Hbar`` of it: the
    transport by the identity."""
    mat = transport_characters(H, Hbar, H.group.identity)
    return apply_dual(mat, Hbar.structure.invariant_factors, H.structure.reduce(char))
