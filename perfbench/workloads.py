"""The benchmark's workloads: inputs made from a seed, the ops, and the
gates that check every answer.

Each workload's ``setup`` builds its shared state and a fixed op list from
the seed.  An op is timed around ``run`` only; ``canonical`` turns its
answer into plain data for comparison and digests, and ``check`` applies
the correctness gates, which never depend on the normal-form basis.

bn_structure
    A structure table: (A, n) pairs run fresh through the command line, as
    a user pays for them.  Elimination dominates the large pairs, and
    generator enumeration and row construction the small ones.
bn_queries
    Class queries on presentations built once in set-up, so elimination is
    paid only in set-up and the ops exercise the normal-form path.
symbol_calculus
    Canonicalization and blow-up expansions of symbols in non-abelian
    groups.  No integer elimination runs here: it is the control that any
    change to B_n elimination must leave unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

FROZEN = Path(__file__).with_name("frozen.json")


@dataclass
class Op:
    desc: tuple
    run: Callable[[], Any]
    canonical: Callable[[Any], Any]
    check: Callable[[Any], str | None]


@dataclass
class Setup:
    ops: list[Op]
    # gates applied to the shared state itself, as (description, error)
    checks: list[tuple[str, str | None]]


def presentation_key(factors, n) -> str:
    return f"B_{n}({'x'.join(f'Z/{m}' for m in factors)})"


def load_frozen() -> dict:
    with open(FROZEN, encoding="utf-8") as fh:
        return json.load(fh)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


# ---------------------------------------------------------------------------
# bn_structure

# The structure table: a fixed set of (A, n) pairs, up to B_2(Z/23), where
# elimination is most of the time and which sets the peak memory, and one
# of two pairs of near-equal cost and size drawn by the seed.  A pair with
# n >= 3 is two ops, since it also runs verify-prop71.  The draw changes
# the inputs but not what a pass costs, and both choices lie above the
# 90th percentile, so a seed does not move which ops the percentiles read.
# 51 ops, about 3.5 s per pass at the seed commit.  B_2(Z/29), 434
# generators, alone takes 3.5-5 s, and would leave too few passes in a run.
TABLE_FIXED = (
    # 7-111 generators, 3-170 ms: 48 ops
    ((4,), 2), ((5,), 2), ((6,), 2), ((7,), 2), ((8,), 2), ((9,), 2),
    ((10,), 2), ((11,), 2), ((12,), 2), ((13,), 2), ((14,), 2), ((15,), 2),
    ((16,), 2), ((18,), 2), ((2, 4), 2), ((2, 6), 2), ((2, 8), 2),
    ((2, 10), 2), ((2, 12), 2), ((3, 3), 2), ((3, 6), 2), ((4, 4), 2),
    ((3,), 3), ((4,), 3), ((5,), 3), ((6,), 3), ((7,), 3), ((8,), 3),
    ((2, 2), 3), ((2, 4), 3), ((2, 2, 2), 3), ((3,), 4), ((4,), 4),
    ((5,), 4), ((2, 2), 4),
    # 189 generators, about 0.35 s
    ((19,), 2),
    # 275 generators, about 1 s
    ((23,), 2),
)
# 152 and 148 generators, about 0.2 s each
TABLE_DRAW = ((17,), 2), ((20,), 2)


def table_pairs() -> list[tuple[tuple[int, ...], int]]:
    """Every (A, n) pair the structure table can draw."""
    return list(TABLE_FIXED + TABLE_DRAW)


def draw_table(seed: int) -> list[tuple[tuple[int, ...], int]]:
    rng = random.Random(f"bn_structure:{seed}")
    pairs = list(TABLE_FIXED) + [rng.choice(TABLE_DRAW)]
    rng.shuffle(pairs)
    return pairs


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _structure_gate(frozen, factors, n):
    want = frozen["structures"][presentation_key(factors, n)]

    def check(answer):
        code, out, err = answer
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        got = json.loads(out)
        if got != want:
            return f"structure {got} != frozen {want}"
        if n == 2 and len(factors) == 1 and factors[0] >= 5 and _is_prime(factors[0]):
            p = factors[0]
            if got["free_rank"] != (p * p + 23) // 24:
                return f"free rank {got['free_rank']} != (p^2+23)/24 for p = {p}"
        return None

    return check


def _prop71_gate(answer):
    code, out, err = answer
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    if json.loads(out) != {"row_spaces_equal": True}:
        return f"verify-prop71 printed {out.strip()}"
    return None


def setup_bn_structure(seed: int, pkg) -> Setup:
    frozen = load_frozen()
    cli = pkg.cli
    ops = []
    for factors, n in draw_table(seed):
        group = json.dumps({"invariant_factors": list(factors)})
        commands = [("bng-structure", _structure_gate(frozen, factors, n))]
        if n >= 3:
            commands.append(("verify-prop71", _prop71_gate))
        for command, gate in commands:
            argv = [command, "--group", group, "--n", str(n)]
            ops.append(
                Op(
                    desc=(command, list(factors), n),
                    run=lambda argv=argv: _cli_call(cli, argv),
                    canonical=lambda answer: list(answer),
                    check=gate,
                )
            )
    return Setup(ops=ops, checks=[])


# ---------------------------------------------------------------------------
# bn_queries

# One presentation with a free part, one torsion-only at n = 3, and one over
# a non-cyclic group, each with a few hundred generators.
QUERY_PRESENTATIONS = (((23,), 2), ((10,), 3), ((5, 5), 2))

# Ops per presentation in one pass: (kind, count).
QUERY_MIX = (("reduce", 24), ("relation", 8), ("equal_rel", 8), ("equal_gen", 8))


def _char_sub(factors, a, b):
    return tuple((x - y) % m for x, y, m in zip(a, b, factors))


def blowup_relation(factors, gen, p, q) -> dict:
    """The blow-up relation of generator ``gen`` at positions ``p < q``.

    Written out from the relation itself, not taken from the package:
    ``[a, b, ...] = [a, b - a, ...] + [a - b, b, ...]`` for ``a != b`` and
    ``[a, a, ...] = [a, 0, ...]``.  Returned as generator -> coefficient.
    """
    a, b = gen[p], gen[q]
    tail = tuple(c for k, c in enumerate(gen) if k not in (p, q))
    row = Counter({gen: 1})
    if a == b:
        row[tuple(sorted((a, tuple(0 for _ in factors)) + tail))] -= 1
    else:
        row[tuple(sorted((a, _char_sub(factors, b, a)) + tail))] -= 1
        row[tuple(sorted((_char_sub(factors, a, b), b) + tail))] -= 1
    return {g: c for g, c in row.items() if c}


def _add(x: dict, y: dict) -> dict:
    out = Counter(x)
    out.update(y)
    return {g: c for g, c in out.items() if c}


def _class_data(cls):
    return [list(cls.free), list(cls.torsion)]


def _sparse(rng, gens) -> dict:
    picks = rng.sample(gens, rng.randint(1, 3))
    return {g: rng.choice((-3, -2, -1, 1, 2, 3)) for g in picks}


def setup_bn_queries(seed: int, pkg) -> Setup:
    frozen = load_frozen()
    bng = pkg.bng
    rng = random.Random(f"bn_queries:{seed}")
    ops, checks = [], []
    for factors, n in QUERY_PRESENTATIONS:
        key = presentation_key(factors, n)
        P = bng.BnGPresentation(pkg.abelian.AbelianGroup(factors), n)
        free_rank, torsion = P.structure()
        got = {"free_rank": free_rank, "torsion": torsion}
        want = frozen["structures"][key]
        checks.append((f"{key} structure", None if got == want else f"{got} != frozen {want}"))
        gens = list(P.generators)
        zero = {tuple(map(tuple, g)) for g in frozen["zero_class_generators"][key]}
        nonzero = [g for g in gens if g not in zero]

        def relation():
            while True:
                p, q = sorted(rng.sample(range(n), 2))
                r = blowup_relation(factors, rng.choice(gens), p, q)
                if r:
                    return r

        for kind, count in QUERY_MIX:
            for _ in range(count):
                if kind == "relation":
                    ops.append(_relation_op(bng, P, key, relation()))
                    continue
                x = _sparse(rng, gens)
                if kind == "reduce":
                    ops.append(_reduce_op(bng, P, key, x, want["torsion"]))
                elif kind == "equal_rel":
                    ops.append(_equal_op(bng, P, key, x, _add(x, relation()), True))
                else:
                    g = rng.choice(nonzero)
                    ops.append(_equal_op(bng, P, key, x, _add(x, {g: 1}), False))
    rng.shuffle(ops)
    return Setup(ops=ops, checks=checks)


def _items(x: dict):
    return sorted([list(map(list, g)), c] for g, c in x.items())


def _reduce_op(bng, P, key, x, torsion) -> Op:
    def check(answer):
        # reduce_class is additive: the class of x is the sum of the classes
        # of its terms, free part exactly and torsion modulo its order
        free = [0] * len(answer.free)
        tors = [0] * len(answer.torsion)
        for g, c in x.items():
            part = bng.reduce_class(P, {g: 1})
            free = [a + c * b for a, b in zip(free, part.free)]
            tors = [a + c * b for a, b in zip(tors, part.torsion)]
        tors = [t % d for t, d in zip(tors, torsion)]
        if (free, tors) != (list(answer.free), list(answer.torsion)):
            return f"reduce_class is not additive on {_items(x)}"
        return None

    return Op(
        desc=("reduce", key, _items(x)),
        run=lambda: bng.reduce_class(P, x),
        canonical=_class_data,
        check=check,
    )


def _relation_op(bng, P, key, r) -> Op:
    def check(answer):
        if answer.is_zero():
            return None
        return f"relation {_items(r)} reduces to {_class_data(answer)}"

    return Op(
        desc=("relation", key, _items(r)),
        run=lambda: bng.reduce_class(P, r),
        canonical=_class_data,
        check=check,
    )


def _equal_op(bng, P, key, x, y, expected: bool) -> Op:
    def check(answer):
        if answer is expected:
            return None
        return f"equal_classes gave {answer}, expected {expected}"

    return Op(
        desc=("equal", key, _items(x), _items(y)),
        run=lambda: bng.equal_classes(P, x, y),
        canonical=lambda answer: answer,
        check=check,
    )


# ---------------------------------------------------------------------------
# symbol_calculus


def _cycle(n):
    return [(i + 1) % n for i in range(n)]


def _dihedral(n):
    return [_cycle(n), [(-i) % n for i in range(n)]]


def _symmetric(n):
    return [[1, 0] + list(range(2, n)), _cycle(n)]


def _alternating(n):
    three = [1, 2, 0] + list(range(3, n))
    if n % 2:
        return [three, _cycle(n)]
    return [three, [0] + [i % (n - 1) + 1 for i in range(1, n)]]


def _cayley_table(degree, perms) -> list[list[int]]:
    """Cayley table of the permutation group generated by ``perms``."""
    ident = tuple(range(degree))
    elems, index = [ident], {ident: 0}
    for cur in elems:
        for g in perms:
            nxt = tuple(g[cur[i]] for i in range(degree))
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
    return [[index[tuple(p[q[i]] for i in range(degree))] for q in elems] for p in elems]


def symbol_groups() -> list[tuple[str, str, int]]:
    """(name, group JSON, rounds): each op kind draws ``rounds`` symbols
    from every stratum of the group."""
    perm = lambda degree, gens: json.dumps(
        {"type": "permutation", "degree": degree, "generators": gens}
    )
    return [
        ("D12", perm(12, _dihedral(12)), 5),
        # given as a table, so the O(|G|^3) axiom check runs in set-up
        ("S5", json.dumps({"type": "table", "cayley": _cayley_table(5, _symmetric(5))}), 4),
        ("A5", perm(5, _alternating(5)), 10),
        ("S6", perm(6, _symmetric(6)), 3),
    ]


def _strata(G) -> list[tuple[Any, int]]:
    """(class representative, n) for every class of abelian subgroups with
    more than one member, at each n in {2, 3} not below its rank.  A symbol's
    cost depends mostly on its subgroup and n, so drawing the same number
    from each stratum keeps the cost of a pass the same from seed to seed."""
    return [
        (rep, n)
        for rep in G.abelian_subgroup_classes()
        if len(rep.normalizer) < G.order
        for n in (2, 3)
        if rep.structure.rank <= n
    ]


def _random_symbol(rng, G, pkg, rep, n):
    """A symbol on a random conjugate of ``rep`` other than ``rep`` itself,
    with random generating weights at ``n``."""
    elems = rep.elements
    while elems == rep.elements:
        g = rng.randrange(G.order)
        elems = tuple(sorted(G.conj(g, h) for h in rep.elements))
    H = G.subgroup(elems)
    A = H.structure
    nonzero = [a for a in A.elements() if any(a)]
    while True:
        beta = tuple(rng.choice(nonzero) for _ in range(n))
        if len(A.subgroup_generated(beta)) == A.order:
            return pkg.symbols.Symbol(
                group=G,
                subgroup=H,
                field_label=pkg.symbols.Atom(name="k", trdeg=0),
                beta=beta,
                ambient_n=n,
            )


def _symbol_desc(name, s):
    return [name, list(s.subgroup.elements), [list(b) for b in s.beta], s.ambient_n]


def _warm(G):
    """Fill the class data of ``G`` and the structure and normalizer of
    every abelian subgroup, so that the ops read them from the caches a
    long-lived caller would have filled."""
    G.class_representative((G.identity,))
    for rep in G.abelian_subgroup_classes():
        conjugates = {
            tuple(sorted(G.conj(g, h) for h in rep.elements)) for g in range(G.order)
        }
        for elems in sorted(conjugates):
            H = G.subgroup(elems)
            H.structure
            H.normalizer


def setup_symbol_calculus(seed: int, pkg) -> Setup:
    rng = random.Random(f"symbol_calculus:{seed}")
    symbols, relations = pkg.symbols, pkg.relations
    ops = []
    for name, text, rounds in symbol_groups():
        G = pkg.groups.FiniteGroup.from_json(text)
        _warm(G)
        draws = _strata(G) * rounds
        for rep, n in draws:
            s = _random_symbol(rng, G, pkg, rep, n)
            ops.append(_canon_op(symbols, name, s, rng.randrange(G.order)))
        for rep, n in draws:
            s = _random_symbol(rng, G, pkg, rep, n)
            i, j = rng.sample(range(n), 2)
            ops.append(_b2_op(symbols, relations, name, s, i, j))
        for rep, n in draws:
            s = _random_symbol(rng, G, pkg, rep, n)
            ops.append(_p46_op(relations, symbols, name, s, rng.randint(2, n)))
    rng.shuffle(ops)
    return Setup(ops=ops, checks=[])


def _non_canonical(symbols, terms):
    for t in terms:
        if symbols.canonicalize_symbol(t) != t:
            return f"term {t.to_json_obj()} is not canonical"
    return None


def _canon_op(symbols, name, s, g) -> Op:
    def check(c):
        if symbols.canonicalize_symbol(c) != c:
            return "canonicalize_symbol is not idempotent"
        if symbols.canonicalize_symbol(symbols.conjugate_symbol(s, g)) != c:
            return f"canonical form changes under conjugation by {g}"
        return None

    return Op(
        desc=("canon", *_symbol_desc(name, s), g),
        run=lambda: symbols.canonicalize_symbol(s),
        canonical=lambda c: c.to_json_obj(),
        check=check,
    )


def _b2_op(symbols, relations, name, s, i, j) -> Op:
    # the same symbol with weights i, j moved to the front
    rest = tuple(b for k, b in enumerate(s.beta) if k not in (i, j))
    front = symbols.Symbol(
        group=s.group,
        subgroup=s.subgroup,
        field_label=s.field_label,
        beta=(s.beta[i], s.beta[j]) + rest,
        ambient_n=s.ambient_n,
    )

    def check(report):
        bad = _non_canonical(
            symbols, list(report.theta1.terms) + list(report.theta2.terms)
        )
        if bad:
            return bad
        # the multi-index expansion at j = 2 is the two-term expansion
        if relations.expand_prop46(front, 2) != report.total():
            return "expand_b2 total differs from expand_prop46 at j = 2"
        return None

    return Op(
        desc=("b2", *_symbol_desc(name, s), i, j),
        run=lambda: relations.expand_b2(s, i, j),
        canonical=lambda report: report.to_json_obj(),
        check=check,
    )


def _p46_op(relations, symbols, name, s, j) -> Op:
    def check(total):
        bad = _non_canonical(symbols, total.terms)
        if bad:
            return bad
        if j == 2 and relations.expand_b2(s, 0, 1).total() != total:
            return "expand_prop46 at j = 2 differs from expand_b2"
        return None

    return Op(
        desc=("p46", *_symbol_desc(name, s), j),
        run=lambda: relations.expand_prop46(s, j),
        canonical=lambda total: total.to_json_obj(),
        check=check,
    )


WORKLOADS = {
    "bn_structure": setup_bn_structure,
    "bn_queries": setup_bn_queries,
    "symbol_calculus": setup_symbol_calculus,
}
