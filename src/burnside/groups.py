"""Finite groups as Cayley tables, with the abelian-subgroup machinery.

Elements are plain indices into the multiplication table.  Groups are
immutable once built; derived data (abelian subgroup classes, normalizers,
invariant-factor bases) is cached on first use and never mutated after.
An abelian group's class queries enumerate nothing: only
``abelian_subgroup_classes`` lists its subgroups.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter

from .abelian import AbelianGroup, transport_characters
from .errors import BurnsideError, InputError, SizeError
from .errors import is_int_rows, load_json

# S6, the largest group the benchmark runs, has 612 abelian subgroups
MAX_ABELIAN_SUBGROUPS = 5000
# largest order of a group, built or given as a table: its table has order² cells
MAX_GROUP_ORDER = 2000
# points a permutation closure stores, degree per element: as many as the
# largest table has cells, so every group fits on as many points as its
# order (its regular representation); 4 million points take 32 MiB
MAX_PERMUTATION_POINTS = MAX_GROUP_ORDER**2
# point images a permutation closure may compute, priced before it starts as
# element cap x distinct generators x degree: 16 generators at the point
# bound, where any group of order <= MAX_GROUP_ORDER needs at most 10
MAX_CLOSURE_IMAGES = 16 * MAX_PERMUTATION_POINTS


def _head(p) -> str:
    """A permutation for a message: a prefix of about 48 characters and its
    length."""
    text = str(list(p[:48]))
    if len(text) > 48:
        text = text[:48].rsplit(", ", 1)[0] + ", ...]"
    return f"{text} of length {len(p)}"


def _table_rows(left, parents) -> tuple:
    """Cayley table rows: element 0 is the identity, element y >= 1 is g_k x
    for ``parents[y - 1] = (x, k)`` with x < y, and left[k][x] indexes g_k x.
    Rows are arrays of unsigned shorts: MAX_GROUP_ORDER fits, and S6's table
    takes 1 MiB instead of 4."""
    rows = [array("H", range(len(parents) + 1))]
    for x, k in parents:  # (g_k x) q = g_k (x q): row x mapped by left[k]
        rows.append(array("H", itemgetter(*rows[x])(left[k])))
    return tuple(rows)


def _radix_parents(A: AbelianGroup) -> list:
    """(x - e_k, k) for each code x >= 1 of ``A``, with k the last nonzero
    coordinate of x: the first stride dividing x."""
    strides = A.strides
    return [
        (x - strides[k], k)
        for x in range(1, A.order)
        for k in [next(k for k, s in enumerate(strides) if x % s == 0)]
    ]


class FiniteGroup:
    """A finite group given by its Cayley table over element indices."""

    def __init__(self, cayley, _trusted=False):
        # the constructors hand over square arrays in range, identity at 0
        if not _trusted and len(cayley) > MAX_GROUP_ORDER:  # before any row is read
            raise SizeError(f"Cayley table of {len(cayley)} rows exceeds bound {MAX_GROUP_ORDER}")
        table = tuple(cayley if _trusted else map(tuple, cayley))
        n = len(table)
        if not _trusted:
            if not {int}.issuperset(map(type, itertools.chain.from_iterable(table))):
                raise InputError("Cayley table entries must be integers")
            if any(len(row) != n for row in table):
                raise InputError("Cayley table must be square")
            if n and (min(map(min, table)) < 0 or max(map(max, table)) >= n):
                raise InputError("Cayley table entries out of range")
        self.cayley = table
        self.order = n
        self.identity = identity = 0 if _trusted else self._find_identity()
        if not _trusted:
            self._check_axioms()
        try:
            self.inverse = tuple(row.index(identity) for row in table)
        except ValueError:
            g = next(g for g, row in enumerate(table) if identity not in row)
            raise InputError(f"element {g} has no inverse") from None
        if not _trusted:  # checked as tuples, kept as arrays
            self.cayley = tuple(array("H", row) for row in table)
        self._subgroup_refs = {}

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
        tab = self.cayley
        return tab[tab[g][h]][self.inverse[g]]

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

    @cached_property
    def is_abelian(self) -> bool:
        tab = self.cayley  # table = transpose
        return all(map(eq, map(tuple, tab), zip(*tab)))

    # constructors --------------------------------------------------------

    @staticmethod
    def from_permutations(degree, perms):
        """Closure of permutations on ``{0..degree-1}`` under composition.

        Elements are indexed breadth-first from the identity, applying the
        generators in their given order, so the indexing is deterministic.
        Each element stores ``degree`` points, and both counts are bounded;
        with no generators nothing of size ``degree`` is built.  A repeated
        generator never adds an element, so it is dropped; the work left,
        at most the element cap times the generators times ``degree``
        point images, is bounded before the closure starts.
        """
        text = str(degree)  # for messages: past 20 digits, the first 12 and the count
        points = text if len(text) <= 20 else f"{text[:12]}... ({len(text)} digits)"
        gens = []
        for p in perms:
            p = tuple(p)
            ints = {int}.issuperset(map(type, p))  # booleans are not int
            if len(p) != degree or not ints or sorted(p) != list(range(degree)):
                raise InputError(f"not a permutation of {points} points: {_head(p)}")
            gens.append(p)
        gens = list(dict.fromkeys(gens))
        ident = tuple(range(degree if gens else 0))
        cap = min(MAX_GROUP_ORDER, MAX_PERMUTATION_POINTS // max(degree, 1))
        if cap * len(gens) * degree > MAX_CLOSURE_IMAGES:
            raise SizeError(
                f"permutation closure of {len(gens)} generators on {points} points "
                f"may compute {cap * len(gens) * degree} point images, past the "
                f"bound {MAX_CLOSURE_IMAGES}"
            )
        elems, index = [ident], {ident: 0}
        left, parents = [[] for _ in gens], []
        for x, cur in enumerate(elems):
            for k, g in enumerate(gens):
                nxt = tuple(map(g.__getitem__, cur))
                j = index.get(nxt)
                if j is None:
                    if len(elems) >= cap:
                        raise SizeError(
                            f"permutation closure exceeds bound {cap} "
                            f"on elements of {points} points"
                        )
                    j = index[nxt] = len(elems)
                    elems.append(nxt)
                    parents.append((x, k))
                left[k].append(j)
        return FiniteGroup(_table_rows(left, parents), _trusted=True)

    @staticmethod
    def from_invariant_factors(factors) -> "FiniteGroup":
        """Direct product of cyclic groups, elements in mixed-radix order."""
        A = AbelianGroup(tuple(factors))
        if A.order > MAX_GROUP_ORDER:
            raise SizeError(f"group order exceeds bound {MAX_GROUP_ORDER}")
        # left[k] adds the unit vector e_k: stride s, cyclic in blocks of q s
        left = [
            [x - x % (q * s) + (x + s) % (q * s) for x in range(A.order)]
            for q, s in zip(A.invariant_factors, A.strides)
        ]
        return FiniteGroup(_table_rows(left, _radix_parents(A)), _trusted=True)

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
            A = AbelianGroup.from_json_obj(data)
            return FiniteGroup.from_invariant_factors(A.invariant_factors)
        raise InputError(f"unknown group type {kind!r}")

    # abelian subgroup machinery ------------------------------------------

    @cached_property
    def _abelian_subgroups(self) -> list[tuple[int, ...]]:
        """All abelian subgroups, as sorted element-index tuples.  Each is
        extended by the elements of C(sub) - sub; C(<sub, g>) = C(sub) & C(g)."""
        tab, n, inverse = self.cayley, self.order, self.inverse
        whole = frozenset(range(n))
        # centralizers equal to G, and intersections that change nothing,
        # share one set: 2000 copies of Z/2000 would take 400 MiB
        centralizer = [whole] * n if self.is_abelian else [None] * n
        for g, row in enumerate(tab):
            if centralizer[g] is not None:
                continue
            commuting = map(eq, row, map(itemgetter(g), tab))
            c = frozenset(itertools.compress(range(n), commuting))
            if len(c) == n:
                centralizer[g] = whole
                continue
            # C(x g x^-1) = x C(g) x^-1 over the class of g, of size n / |C(g)|
            todo = n // len(c)
            for x, xrow in enumerate(tab):
                y = tab[xrow[g]][inverse[x]]
                if centralizer[y] is None:
                    xc = map(tab.__getitem__, map(xrow.__getitem__, c))
                    centralizer[y] = frozenset(map(itemgetter(inverse[x]), xc))
                    todo -= 1
                    if not todo:
                        break
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
        T(img) g0^-1.  Only a nonabelian group runs it: see ``_class_entry``.
        """
        tab, inverse = self.cayley, self.inverse
        info = {}
        for sub in self._abelian_subgroups:
            if sub in info:
                continue
            transporter = {}
            for g, row in enumerate(tab):
                # g sub g^-1: sub through row g, then column g^-1
                gsub = map(tab.__getitem__, map(row.__getitem__, sub))
                img = tuple(sorted(map(itemgetter(inverse[g]), gsub)))
                transporter.setdefault(img, []).append(g)
            rep = min(transporter)
            for img, into in transporter.items():
                right = itemgetter(inverse[into[0]])
                info[img] = (
                    rep,
                    min(map(right, map(tab.__getitem__, transporter[rep]))),
                    tuple(sorted(map(right, map(tab.__getitem__, into)))),
                )
        return info

    def subgroup(self, elems) -> "SubgroupRef":
        """The SubgroupRef for an abelian subgroup given by its elements."""
        try:
            key = tuple(sorted(set(elems)))
        except TypeError:
            raise InputError("subgroup elements must be integers") from None
        # before the lookup: a float key (0.0 == 0) would find the int one
        if not {int}.issuperset(map(type, key)):
            raise InputError("subgroup elements must be integers")
        refs = self._subgroup_refs
        if key not in refs:
            if key and not 0 <= key[0] <= key[-1] < self.order:
                raise InputError(f"subgroup elements must lie in 0..{self.order - 1}")
            # a finite nonempty set S with S S in S is a subgroup (G is one)
            tab, members = self.cayley, frozenset(key)
            if not key or key != tuple(range(self.order)) and not all(
                members.issuperset(map(tab[a].__getitem__, key)) for a in key
            ):
                raise InputError("element set is not closed under the group law")
            # every abelian subgroup of a nonabelian group has a class entry
            if not (self.is_abelian or key in self._class_info):
                raise InputError("subgroup is not abelian")
            refs[key] = SubgroupRef(group=self, elements=key)
        return refs[key]

    def abelian_subgroup_classes(self) -> list["SubgroupRef"]:
        """One representative per conjugacy class of abelian subgroups."""
        reps = {self._class_entry(sub)[0] for sub in self._abelian_subgroups}
        return [self.subgroup(r) for r in sorted(reps, key=lambda s: (len(s), s))]

    def _class_entry(self, elems) -> tuple:
        """(class representative, least conjugator, normalizer): in an abelian
        group the subgroup itself, 0 and G, with nothing enumerated."""
        if self.is_abelian:
            return self.subgroup(elems).elements, 0, tuple(range(self.order))
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


def _element_orders(elems, mul, identity) -> dict:
    """Order of every element, by walking the cyclic group <x> of each x not
    yet reached: x^i has order m / gcd(i, m) when <x> has order m."""
    orders = {identity: 1}
    for x in (x for x in elems if x not in orders):
        powers = [x]
        while powers[-1] != identity:
            powers.append(mul(powers[-1], x))
        for i, y in enumerate(powers, 1):
            orders.setdefault(y, len(powers) // math.gcd(i, len(powers)))
    return orders


def _split_abelian_basis(elems, mul, identity):
    """Basis of a finite abelian group by splitting off maximal-order elements.

    ``elems`` is an ordered list of hashable element handles.  Returns a list
    of ``(element, order)`` pairs with decreasing orders; ties in the choice
    of the maximal-order element are broken by position in ``elems``.  The
    quotient by that element is split the same way, and each of its basis
    cosets lifts to its first member in ``elems`` of the same order.
    """
    nontrivial = [x for x in elems if x != identity]
    if not nontrivial:
        return []
    orders = _element_orders(elems, mul, identity)
    # max keeps the first of equal keys: the earliest element of maximal order
    g = max(nontrivial, key=orders.__getitem__)
    m = orders[g]
    cyc = [identity]
    cur = g
    while cur != identity:
        cyc.append(cur)
        cur = mul(cur, g)
    # cosets of <g>, each named by its first member in elems
    rep, reps = {}, []
    for x in elems:
        if x not in rep:
            reps.append(x)
            rep.update((mul(x, c), x) for c in cyc)
    q_basis = _split_abelian_basis(reps, lambda r, s: rep[mul(r, s)], rep[identity])
    basis = [(g, m)]
    for r, mq in q_basis:
        # a maximal-order pivot guarantees a lift of the same order
        lift = next((x for x in elems if rep[x] == r and orders[x] == mq), None)
        if lift is None:
            raise BurnsideError("no order-preserving lift in abelian splitting")
        basis.append((lift, mq))
    return basis


@dataclass(eq=False)
class SubgroupRef:
    """An abelian subgroup of a FiniteGroup with cached structure data, built
    only by ``FiniteGroup.subgroup``: one per element set, equal = identical."""

    group: FiniteGroup
    elements: tuple[int, ...]

    @cached_property
    def normalizer(self) -> tuple[int, ...]:
        return self.group.normalizer(self.elements)

    @cached_property
    def canonical_maps(self) -> tuple["SubgroupRef", tuple]:
        """The class representative R and the distinct dual maps from this
        subgroup's characters to R's, as tuples of rows: the
        ``transport_characters`` maps by x g for x in N(R), g the least
        conjugator, in the order of the first x that gives each.  The
        transport by x g is the action of x after the transport by g, so
        two x give the same map exactly when they act alike on R's basis:
        one transport per coset of R's centralizer."""
        G = self.group
        rep, g = G.class_representative(self.elements)
        R = G.subgroup(rep)
        firsts = {}
        for x in R.normalizer:
            firsts.setdefault(tuple(G.conj(x, b) for b in R.basis), x)
        mats = (transport_characters(self, R, G.mul(x, g)) for x in firsts.values())
        return R, tuple(tuple(map(tuple, mat)) for mat in mats)

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
        pairs = _split_abelian_basis(list(self.elements), G.mul, G.identity)
        pairs.reverse()  # increasing orders = invariant factor order
        basis = tuple(g for g, _ in pairs)
        structure = AbelianGroup(tuple(m for _, m in pairs))
        # elements in mixed-radix order of their coordinates, each one
        # product from its parent: x = (x - e_k) b_k
        tab, elems = G.cayley, [G.identity]
        for x, k in _radix_parents(structure):
            elems.append(tab[elems[x]][basis[k]])
        to_coords = dict(zip(elems, structure.elements()))
        if len(to_coords) != len(elems):
            raise BurnsideError("abelian basis is not independent")
        if len(to_coords) != len(self.elements):
            raise BurnsideError("abelian basis does not span the subgroup")
        return structure, basis, to_coords

    def coords(self, elem: int) -> tuple[int, ...]:
        """Invariant-factor coordinates of a subgroup element."""
        data = self._structure_data
        if elem not in data[2]:
            raise InputError(f"element {elem} is not in the subgroup")
        return data[2][elem]
