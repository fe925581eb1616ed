"""Command-line front end.

Inputs are inline JSON, a file path, or ``-`` for stdin; a file or stdin
longer than ``MAX_INPUT_CHARS`` is a size error.  Output is
deterministic byte-for-byte for a fixed request: JSON is emitted compact
with sorted keys, CSV without quoting.  Exit codes: 0 success, 2 input
error, 3 size error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import AbelianGroup, wedge_equivalent
from .bng import BnGPresentation, equal_classes, reduce_class
from .errors import BurnsideError, InputError, SizeError, is_int_rows, load_json
from .groups import MAX_GROUP_ORDER, FiniteGroup
from .relations import expand_b2, price_relation_rows, relation_rows
from .symbols import Atom, Symbol, canonicalize_symbol

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SIZE = 3

# longest file or stdin input, in characters.  A Cayley table of order
# MAX_GROUP_ORDER as compact JSON takes about 18 MB, 4.45 characters a
# cell; 8 a cell also admits json.dumps's default ", " separators
MAX_INPUT_CHARS = 8 * MAX_GROUP_ORDER**2


def _read_value(value: str) -> str:
    """Resolve an argument to text: stdin for ``-``, file contents, or
    inline.  A file or stdin is read to one character past the bound."""
    if value == "-":
        text = sys.stdin.read(MAX_INPUT_CHARS + 1)
    elif value.lstrip()[:1] not in ("{", "["):
        try:
            with open(value, encoding="utf-8") as fh:
                text = fh.read(MAX_INPUT_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read input file {value!r}: {exc}") from exc
    else:
        return value
    if len(text) > MAX_INPUT_CHARS:
        raise SizeError(f"input {value!r} is longer than the bound {MAX_INPUT_CHARS} characters")
    return text


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


def _abelian_group(value: str) -> AbelianGroup:
    return AbelianGroup.from_json(_read_value(value))


def _char_rows(value: str, what: str) -> list:
    data = load_json(_read_value(value), f"JSON for {what}")
    if not is_int_rows(data):
        raise InputError(f"{what} must be an array of integer character vectors")
    return data


def _char_tuple(value: str, what: str) -> tuple:
    # checked rows as a hashable tuple; the presentation reduces them
    return tuple(map(tuple, _char_rows(value, what)))


def _cmd_bng_structure(args) -> str:
    A = _abelian_group(args.group)
    free_rank, torsion = BnGPresentation(A, args.n).structure()
    if args.format == "csv":
        label = "x".join(f"Z/{q}" for q in A.invariant_factors) or "1"
        row = f"{label},{args.n},{free_rank},{';'.join(map(str, torsion))}"
        return f"group,n,free_rank,torsion\n{row}\n"
    return _dump({"free_rank": free_rank, "torsion": torsion})


def _cmd_bng_reduce(args) -> str:
    P = BnGPresentation(_abelian_group(args.group), args.n)
    cls = reduce_class(P, {_char_tuple(args.cls, "--class"): 1})
    return _dump({"normal_form": cls.to_json_obj()})


def _cmd_bng_equal(args) -> str:
    P = BnGPresentation(_abelian_group(args.group), args.n)
    x, y = _char_tuple(args.x, "--x"), _char_tuple(args.y, "--y")
    return _dump({"equal": equal_classes(P, {x: 1}, {y: 1})})


def _printed_expansion(report) -> dict:
    """An expansion report as printed: its sums and its raw terms."""
    obj = report.to_json_obj()
    obj["raw_theta1"] = [t.to_json_obj() for t in report.raw_theta1]
    obj["raw_theta2"] = [t.to_json_obj() for t in report.raw_theta2]
    return obj


def _cmd_expand(args) -> str:
    G = FiniteGroup.from_json(_read_value(args.group))
    s = Symbol.from_json(G, _read_value(args.symbol))
    return _dump(_printed_expansion(expand_b2(s, args.i, args.j)))


def _cmd_canon(args) -> str:
    G = FiniteGroup.from_json(_read_value(args.group))
    s = Symbol.from_json(G, _read_value(args.symbol))
    return _dump(canonicalize_symbol(s).to_json_obj())


def _cmd_verify_prop71(args) -> str:
    # all rows span what the j = 2 rows span when the j >= 3 rows lie in their
    # lattice: at n <= 2, with no such row, and when B_n(A) = 0, the lattice
    # being Z^N.  n < 1 and the candidate bound fail on the generators, and
    # the j >= 3 rows are priced, before a j = 2 row is built
    P = BnGPresentation(_abelian_group(args.group), args.n)
    if args.n == 1 or not P.generator_codes or args.n == 2:
        return _dump({"row_spaces_equal": True})
    price_relation_rows(P, args.n)
    F = P.smith_form
    return _dump({"row_spaces_equal": not F.orders or F.contains(relation_rows(P, args.n, 3))})


def d8_example_report() -> dict:
    """The packaged dihedral regression: expand the order-4 subgroup symbol."""
    G = FiniteGroup.from_permutations(4, [[1, 2, 3, 0], [2, 1, 0, 3]])
    rho = 1
    sigma = 2
    rho2 = G.mul(rho, rho)
    H = G.subgroup(G.closure([rho2, sigma]))
    K = Atom(name="CxC", trdeg=0, alg_closure_degree=1, num_components=2)
    s = Symbol(
        group=G,
        subgroup=H,
        field_label=K,
        beta=((1, 0), (0, 1)),
        ambient_n=2,
    )
    report = expand_b2(s, 0, 1)
    sigma_class, _ = G.class_representative(G.closure([sigma]))
    theta2_sub = report.raw_theta2[0].subgroup.elements
    theta2_class, _ = G.class_representative(theta2_sub)
    return {
        "input": s.to_json_obj(),
        **_printed_expansion(report),
        "theta2_subgroup_class": list(theta2_class),
        "theta2_in_reflection_class": theta2_class == sigma_class,
    }


def _cmd_example_d8(args) -> str:
    return _dump(d8_example_report())


def _cmd_wedge(args) -> str:
    A = _abelian_group(args.group)
    # the wedge test prices the rank, then reduces the characters itself
    x, y = _char_rows(args.x, "--x"), _char_rows(args.y, "--y")
    return _dump({"equivalent": wedge_equivalent(A, x, y)})


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error instead of exiting."""

    def error(self, message):
        raise InputError(message)


_REQUIRED, _INTEGER = dict(required=True), dict(type=int, required=True)
_GROUP_N = {"--group": _REQUIRED, "--n": _INTEGER}
_XY = {"--x": _REQUIRED, "--y": _REQUIRED}
_SYMBOL = {"--group": _REQUIRED, "--symbol": _REQUIRED}

# subcommand name -> (handler, flag -> add_argument keywords), in help order
COMMANDS = {
    "bng-structure": (_cmd_bng_structure,
                      {**_GROUP_N, "--format": dict(choices=("json", "csv"), default="json")}),
    "bng-reduce": (_cmd_bng_reduce, {**_GROUP_N, "--class": dict(required=True, dest="cls")}),
    "bng-equal": (_cmd_bng_equal, {**_GROUP_N, **_XY}),
    "expand": (_cmd_expand, {**_SYMBOL, "--i": _INTEGER, "--j": _INTEGER}),
    "canon": (_cmd_canon, _SYMBOL),
    "verify-prop71": (_cmd_verify_prop71, _GROUP_N),
    "example-d8": (_cmd_example_d8, {}),
    "wedge": (_cmd_wedge, {"--group": _REQUIRED, **_XY}),
}


def _named(argv):
    """The subcommand ``argv[0]`` names, or None."""
    return argv[0] if argv and argv[0] in COMMANDS else None


def _command(parser, name):
    """Give ``parser`` the flags and the handler of subcommand ``name``."""
    func, flags = COMMANDS[name]
    for flag, kwargs in flags.items():
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func, command=name)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the subcommand ``argv[0]`` names, alone, for the rest
    of ``argv``; the root parser with all of them when it names none, for
    root help and the invalid-choice error."""
    name = _named(argv)
    if name is not None:
        parser = _Parser(prog="burnside " + name)
        _command(parser, name)
        return parser
    parser = _Parser(
        prog="burnside",
        description="Exact symbol calculus for equivariant Burnside groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _command(sub.add_parser(name), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed by the parser ``build_parser`` gives for it: a
    named subcommand's parser reads the rest of the line, the root parser
    all of it."""
    parser = build_parser(argv)
    return parser.parse_args(argv[1:] if _named(argv) else argv)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
        sys.stdout.write(args.func(args))
        return EXIT_OK
    except SizeError as exc:
        sys.stderr.write(f"size error: {exc}\n")
        return EXIT_SIZE
    except BurnsideError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
