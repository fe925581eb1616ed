"""Finite groups as Cayley tables, with the abelian-subgroup machinery.

Elements are plain indices into the multiplication table.  Groups are
immutable once built; derived data (abelian subgroup classes, normalizers,
invariant-factor bases) is cached on first use and never mutated after.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter

from .abelian import AbelianGroup
from .errors import InputError, InvariantError, PreconditionError, SizeError
from .errors import is_int_rows, load_json

# S6, the largest group the benchmark runs, has 612 abelian subgroups
MAX_ABELIAN_SUBGROUPS = 5000
# largest order of a group a constructor builds: its table has order² cells
MAX_GROUP_ORDER = 2000


def _table_rows(left, parents) -> tuple:
    """Cayley table rows: element 0 is the identity, element y >= 1 is g_k x
    for ``parents[y - 1] = (x, k)`` with x < y, and left[k][x] indexes g_k x."""
    rows = [tuple(range(len(parents) + 1))]
    for x, k in parents:  # (g_k x) q = g_k (x q): row x mapped by left[k]
        rows.append(tuple(map(left[k].__getitem__, rows[x])))
    return tuple(rows)


class FiniteGroup:
    """A finite group given by its Cayley table over element indices."""

    def __init__(self, cayley, identity=None, _trusted=False):
        # the constructors hand over rows that are tuples of ints already
        table = tuple(cayley if _trusted else (tuple(map(int, r)) for r in cayley))
        n = len(table)
        if any(len(row) != n for row in table):
            raise InputError("Cayley table must be square")
        if n and (min(map(min, table)) < 0 or max(map(max, table)) >= n):
            raise InputError("Cayley table entries out of range")
        self.cayley = table
        self.order = n
        if identity is None:
            identity = self._find_identity()
        self.identity = identity
        if not _trusted:
            self._check_axioms()
        try:
            self.inverse = tuple(row.index(identity) for row in table)
        except ValueError:
            g = next(g for g, row in enumerate(table) if identity not in row)
            raise InputError(f"element {g} has no inverse") from None

    # construction helpers ------------------------------------------------

    def _find_identity(self) -> int:
        ident = tuple(range(self.order))
        for e, row in enumerate(self.cayley):
            if row == ident and tuple(map(itemgetter(e), self.cayley)) == ident:
                return e
        raise InputError("Cayley table has no identity element")

    def _check_axioms(self):
        """Associativity by Light's test: the elements a with (x a) y =
        x (a y) for all x, y are closed under the product, so it suffices to
        test a generating set of the table as a magma, found greedily by
        closure under products in both orders."""
        tab = self.cayley
        reached, gens = set(), []
        for a in range(self.order):
            new = [] if a in reached else [a]
            gens += new
            reached.update(new)
            while new:
                z = new.pop()
                members = list(reached)
                prods = set(map(tab[z].__getitem__, members))
                prods.update(map(itemgetter(z), map(tab.__getitem__, members)))
                new += prods - reached
                reached |= prods
        for a, row in itertools.product(gens, tab):
            if tab[row[a]] != tuple(map(row.__getitem__, tab[a])):
                raise InputError("Cayley table is not associative")

    # elementary queries --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1"""
        return self.mul(self.mul(g, h), self.inv(g))

    def element_order(self, g: int) -> int:
        k, cur = 1, g
        while cur != self.identity:
            cur = self.mul(cur, g)
            k += 1
        return k

    def commute(self, a: int, b: int) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def closure(self, gens) -> frozenset:
        seen = {self.identity}
        frontier = [self.identity]
        gens = sorted(set(gens))
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def is_abelian_subset(self, elems) -> bool:
        elems = tuple(elems)
        return all(
            self.commute(a, b) for a, b in itertools.combinations(elems, 2)
        )

    @cached_property
    def is_abelian(self) -> bool:
        return all(map(eq, self.cayley, zip(*self.cayley)))  # table = transpose

    # constructors --------------------------------------------------------

    @staticmethod
    def from_permutations(degree, perms, max_order=MAX_GROUP_ORDER):
        """Closure of permutations on ``{0..degree-1}`` under composition.

        Elements are indexed breadth-first from the identity, applying the
        generators in their given order, so the indexing is deterministic.
        """
        gens = []
        for p in perms:
            p = tuple(int(x) for x in p)
            if sorted(p) != list(range(degree)):
                raise InputError(f"not a permutation of {degree} points: {p}")
            gens.append(p)
        ident = tuple(range(degree))
        elems, index = [ident], {ident: 0}
        left, parents = [[] for _ in gens], []
        for x, cur in enumerate(elems):
            for k, g in enumerate(gens):
                nxt = tuple(map(g.__getitem__, cur))
                j = index.get(nxt)
                if j is None:
                    if len(elems) >= max_order:
                        raise SizeError(
                            f"permutation closure exceeds bound {max_order}"
                        )
                    j = index[nxt] = len(elems)
                    elems.append(nxt)
                    parents.append((x, k))
                left[k].append(j)
        return FiniteGroup(_table_rows(left, parents), identity=0, _trusted=True)

    @staticmethod
    def from_invariant_factors(factors) -> "FiniteGroup":
        """Direct product of cyclic groups, elements in mixed-radix order."""
        A = AbelianGroup(tuple(factors))
        if A.order > MAX_GROUP_ORDER:
            raise SizeError(f"group order {A.order} exceeds bound {MAX_GROUP_ORDER}")
        facs = A.invariant_factors
        strides = [math.prod(facs[k + 1 :]) for k in range(len(facs))]
        # left[k] adds the unit vector e_k: stride s, cyclic in blocks of q s
        left = [
            [x - x % (q * s) + (x + s) % (q * s) for x in range(A.order)]
            for q, s in zip(facs, strides)
        ]
        parents = []
        for x in range(1, A.order):
            # x - e_k for the last nonzero coordinate k: the first stride dividing x
            k = next(k for k, s in enumerate(strides) if x % s == 0)
            parents.append((x - strides[k], k))
        return FiniteGroup(_table_rows(left, parents), identity=0, _trusted=True)

    @staticmethod
    def from_json(text: str) -> "FiniteGroup":
        data = load_json(text, "group JSON")
        if not isinstance(data, dict) or "type" not in data:
            raise InputError('group JSON must be an object with a "type" field')
        kind = data["type"]
        if kind == "permutation":
            degree, perms = data.get("degree"), data.get("generators")
            if type(degree) is not int or degree < 0 or not is_int_rows(perms):
                raise InputError(
                    'permutation group JSON needs a nonnegative integer "degree" '
                    'and integer arrays "generators"'
                )
            return FiniteGroup.from_permutations(degree, perms)
        if kind == "table":
            if not is_int_rows(data.get("cayley")):
                raise InputError('table group JSON needs integer arrays "cayley"')
            return FiniteGroup(data["cayley"])
        if kind == "abelian":
            facs = data.get("invariant_factors")
            if not is_int_rows([facs]):
                raise InputError('"invariant_factors" must be a list of integers')
            try:
                return FiniteGroup.from_invariant_factors(facs)
            except InvariantError as exc:
                raise InputError(str(exc)) from exc
        raise InputError(f"unknown group type {kind!r}")

    # abelian subgroup machinery ------------------------------------------

    @cached_property
    def _abelian_subgroups(self) -> list[tuple[int, ...]]:
        """All abelian subgroups, as sorted element-index tuples.  Each is
        extended by the elements of C(sub) - sub; C(<sub, g>) = C(sub) & C(g)."""
        tab, n = self.cayley, self.order
        whole = frozenset(range(n))
        centralizer = []
        for g, row in enumerate(tab):
            commuting = map(eq, row, map(itemgetter(g), tab))
            c = frozenset(itertools.compress(range(n), commuting))
            # centralizers equal to G, and intersections that change nothing,
            # share one set: 2000 copies of Z/2000 would take 400 MiB
            centralizer.append(whole if len(c) == n else c)
        trivial = frozenset((self.identity,))
        found = {trivial}
        frontier = [(trivial, whole)]
        while frontier:
            sub, cent = frontier.pop()
            done = set(sub)
            for g in cent:
                if g in done:
                    continue
                # g centralizes sub, so <sub, g> is abelian: the cosets sub g^k
                # up to the first power of g that lies in sub
                cosets, power = [sub], g
                while power not in sub:
                    cosets.append(tuple(map(tab[power].__getitem__, sub)))
                    power = tab[power][g]
                ext, m = frozenset().union(*cosets), len(cosets)
                # each element of sub g^k with k prime to m = [ext : sub]
                # generates ext together with sub
                done.update(*(c for k, c in enumerate(cosets) if math.gcd(k, m) == 1))
                if ext not in found:
                    if len(found) >= MAX_ABELIAN_SUBGROUPS:
                        raise SizeError(
                            f"abelian subgroups exceed bound {MAX_ABELIAN_SUBGROUPS}"
                        )
                    found.add(ext)
                    cg = centralizer[g]
                    frontier.append((ext, cent if cent <= cg else cent & cg))
        return sorted(tuple(sorted(s)) for s in found)

    @cached_property
    def _class_info(self) -> dict:
        """subgroup -> (class representative, least conjugator, normalizer).

        One conjugation pass per class gives the transporter T: image ->
        every g with g sub g^-1 = image.  For g0 in T(img), the conjugators
        from img to rep are T(rep) g0^-1 and the normalizer of img is
        T(img) g0^-1.  In an abelian group T is all of G for every subgroup.
        """
        if self.is_abelian:
            whole = tuple(range(self.order))
            return {sub: (sub, 0, whole) for sub in self._abelian_subgroups}
        info = {}
        for sub in self._abelian_subgroups:
            if sub in info:
                continue
            transporter = {}
            for g in range(self.order):
                img = tuple(sorted(self.conj(g, h) for h in sub))
                transporter.setdefault(img, []).append(g)
            rep = min(transporter)
            for img, into in transporter.items():
                g0inv = self.inv(into[0])
                info[img] = (
                    rep,
                    min(self.mul(g, g0inv) for g in transporter[rep]),
                    tuple(sorted(self.mul(g, g0inv) for g in into)),
                )
        return info

    @cached_property
    def _subgroup_refs(self) -> dict:
        return {}

    def subgroup(self, elems) -> "SubgroupRef":
        """The SubgroupRef for an abelian subgroup given by its elements."""
        key = tuple(sorted(set(elems)))
        refs = self._subgroup_refs
        if key not in refs:
            if self.closure(key) != frozenset(key):
                raise InputError("element set is not closed under the group law")
            if not (self.is_abelian or self.is_abelian_subset(key)):
                raise InvariantError("subgroup is not abelian")
            refs[key] = SubgroupRef(group=self, elements=key)
        return refs[key]

    def full_subgroup(self) -> "SubgroupRef":
        return self.subgroup(range(self.order))

    def abelian_subgroup_classes(self) -> list["SubgroupRef"]:
        """One representative per conjugacy class of abelian subgroups."""
        reps = sorted(
            {rep for rep, _, _ in self._class_info.values()},
            key=lambda s: (len(s), s),
        )
        return [self.subgroup(r) for r in reps]

    def _class_entry(self, elems) -> tuple:
        key = tuple(sorted(set(elems)))
        if key not in self._class_info:
            raise InputError("not an abelian subgroup of this group")
        return self._class_info[key]

    def class_representative(self, elems) -> tuple[tuple[int, ...], int]:
        """Canonical class representative of an abelian subgroup + conjugator."""
        return self._class_entry(elems)[:2]

    def normalizer(self, elems) -> tuple[int, ...]:
        """Normalizer of an abelian subgroup, in increasing order."""
        return self._class_entry(elems)[2]


def _split_abelian_basis(elems, mul, identity, order_of):
    """Basis of a finite abelian group by splitting off maximal-order elements.

    ``elems`` is an ordered list of hashable element handles.  Returns a list
    of ``(element, order)`` pairs with decreasing orders; ties in the choice
    of the maximal-order element are broken by position in ``elems``.
    """
    nontrivial = [x for x in elems if x != identity]
    if not nontrivial:
        return []
    orders = {x: order_of(x) for x in elems}
    # max keeps the first of equal keys: the earliest element of maximal order
    g = max(nontrivial, key=orders.__getitem__)
    m = orders[g]
    # cosets of <g>
    cyc = [identity]
    cur = g
    while cur != identity:
        cyc.append(cur)
        cur = mul(cur, g)
    coset_of = {}
    cosets = []
    for x in elems:
        if x in coset_of:
            continue
        coset = frozenset(mul(x, c) for c in cyc)
        cosets.append(coset)
        for y in coset:
            coset_of[y] = coset
    q_identity = coset_of[identity]

    def q_mul(c1, c2):
        return coset_of[mul(next(iter(c1)), next(iter(c2)))]

    def q_order(c):
        k, cur = 1, c
        while cur != q_identity:
            cur = q_mul(cur, c)
            k += 1
        return k

    q_basis = _split_abelian_basis(cosets, q_mul, q_identity, q_order)
    basis = [(g, m)]
    for coset, mq in q_basis:
        # a maximal-order pivot guarantees a lift of the same order
        lifts = [x for x in elems if x in coset and orders[x] == mq]
        if not lifts:
            raise InvariantError("no order-preserving lift in abelian splitting")
        basis.append((lifts[0], mq))
    return basis


@dataclass(eq=False)
class SubgroupRef:
    """An abelian subgroup of a FiniteGroup with cached structure data."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __hash__(self):
        return hash((id(self.group), self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupRef)
            and self.group is other.group
            and self.elements == other.elements
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def normalizer(self) -> tuple[int, ...]:
        return self.group.normalizer(self.elements)

    @property
    def structure(self) -> AbelianGroup:
        return self._structure_data[0]

    @property
    def basis(self) -> tuple[int, ...]:
        """Generators realizing the invariant factors, as element indices."""
        return self._structure_data[1]

    @cached_property
    def _structure_data(self):
        G = self.group
        elems = list(self.elements)
        pairs = _split_abelian_basis(elems, G.mul, G.identity, G.element_order)
        pairs.reverse()  # increasing orders = invariant factor order
        factors = tuple(m for _, m in pairs)
        basis = tuple(g for g, _ in pairs)
        structure = AbelianGroup(factors)
        to_coords = {}
        from_coords = {}
        for coords in itertools.product(*(range(m) for m in factors)):
            x = G.identity
            for b, k in zip(basis, coords):
                for _ in range(k):
                    x = G.mul(x, b)
            if x in to_coords:
                raise InvariantError("abelian basis is not independent")
            to_coords[x] = coords
            from_coords[coords] = x
        if len(to_coords) != self.order:
            raise InvariantError("abelian basis does not span the subgroup")
        return structure, basis, to_coords, from_coords

    def coords(self, elem: int) -> tuple[int, ...]:
        """Invariant-factor coordinates of a subgroup element."""
        data = self._structure_data
        if elem not in data[2]:
            raise InputError(f"element {elem} is not in the subgroup")
        return data[2][elem]

    def element(self, coords) -> int:
        data = self._structure_data
        return data[3][self.structure.reduce(coords)]

    def char_value(self, char, elem: int) -> int:
        """Value of a character on an element, in Z/exponent (0 = trivial)."""
        A = self.structure
        e = A.exponent
        c = self.coords(elem)
        return (
            sum(
                a_i * c_i * (e // n_i)
                for a_i, c_i, n_i in zip(A.reduce(char), c, A.invariant_factors)
            )
            % e
        )


def _dual_matrix(src: SubgroupRef, dst: SubgroupRef, conj_map) -> list[list[int]]:
    """Matrix of the dual map (src characters -> dst characters).

    ``conj_map`` sends dst elements into src; the dual of a character ``a``
    on src is ``a o conj_map`` on dst, expressed on dst's character basis.
    """
    n_src = src.structure.invariant_factors
    n_dst = dst.structure.invariant_factors
    r_src, r_dst = len(n_src), len(n_dst)
    mat = []
    for i in range(r_dst):
        pre = src.coords(conj_map(dst.basis[i]))
        row = []
        for j in range(r_src):
            num = pre[j] * n_dst[i]
            if num % n_src[j]:
                raise InvariantError("conjugation does not respect orders")
            row.append((num // n_src[j]) % n_dst[i])
        mat.append(row)
    return mat


def apply_dual(matrix, factors, char) -> tuple[int, ...]:
    """Apply a dual-map matrix to a character vector (row i mod factors[i])."""
    return tuple(
        sum(m * a for m, a in zip(row, char)) % n
        for row, n in zip(matrix, factors)
    )


def character_action(G: FiniteGroup, g: int, H: SubgroupRef) -> list[list[int]]:
    """Automorphism of the character group of ``H`` induced by conjugation.

    ``g`` must normalize ``H``; the returned matrix expresses
    ``a -> a o conj_{g^-1}`` on the invariant-factor character basis, so the
    action is contravariant: acting by ``g * g'`` equals acting by ``g``
    after acting by ``g'``.
    """
    if g not in H.normalizer:
        raise PreconditionError(f"element {g} does not normalize the subgroup")
    ginv = G.inv(g)
    return _dual_matrix(H, H, lambda h: G.conj(ginv, h))


def transport_characters(
    G: FiniteGroup, src: SubgroupRef, dst: SubgroupRef, g: int
):
    """Dual-map matrix carrying characters of ``src`` to ``g src g^-1 = dst``."""
    ginv = G.inv(g)
    return _dual_matrix(src, dst, lambda h: G.conj(ginv, h))
