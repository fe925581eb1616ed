import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import InputError, cli
from conftest import compose_permutations, permutation_closure, table_by_composition

GOLDEN = Path(__file__).parent / "golden"
Z3 = '{"invariant_factors":[3]}'


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "burnside.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


GOLDEN_CASES = [
    ("bng_structure_z3_n2.json", ["bng-structure", "--group", Z3, "--n", "2"]),
    (
        "bng_structure_z3_n2.csv",
        ["bng-structure", "--group", Z3, "--n", "2", "--format", "csv"],
    ),
    (
        "verify_prop71_z2_n2.json",
        ["verify-prop71", "--group", '{"invariant_factors":[2]}', "--n", "2"],
    ),
    ("example_d8.json", ["example-d8"]),
    (
        "wedge_z5z5.json",
        [
            "wedge",
            "--group",
            '{"invariant_factors":[5,5]}',
            "--x",
            "[[1,0],[0,1]]",
            "--y",
            "[[0,1],[1,0]]",
        ],
    ),
    (
        "bng_reduce_z3.json",
        ["bng-reduce", "--group", Z3, "--n", "2", "--class", "[[1],[1]]"],
    ),
    (
        # a Klein four-subgroup of S4 that is not its class's
        # representative: transport by a conjugator, then N(R)
        "canon_s4_conjugate.json",
        [
            "canon",
            "--group",
            '{"type":"permutation","degree":4,'
            '"generators":[[1,0,2,3],[1,2,3,0]]}',
            "--symbol",
            '{"subgroup":[0,5,17,18],"field":{"atom":{"name":"k","trdeg":0}},'
            '"beta":[[0,1],[1,0]],"n":2}',
        ],
    ),
    (
        # coordinates of about 200 digits
        "bng_reduce_z61.json",
        ["bng-reduce", "--group", '{"invariant_factors":[61]}', "--n", "2", "--class", "[[1],[2]]"],
    ),
    (
        # the blow-up of the same conjugate Klein four-subgroup at i = 0, j = 1
        "expand_s4_conjugate.json",
        [
            "expand",
            "--group",
            '{"type":"permutation","degree":4,'
            '"generators":[[1,0,2,3],[1,2,3,0]]}',
            "--symbol",
            '{"subgroup":[0,5,17,18],"field":{"atom":{"name":"k","trdeg":0}},'
            '"beta":[[0,1],[1,0]],"n":2}',
            "--i",
            "0",
            "--j",
            "1",
        ],
    ),
    (
        "bng_equal_z7.json",
        ["bng-equal", "--group", '{"invariant_factors":[7]}', "--n", "2",
         "--x", "[[0],[1]]", "--y", "[[1],[1]]"],
    ),
    (
        # 1,890 generators on 61 coded characters: free rank (61^2 + 23)/24
        "bng_structure_z61_n2.json",
        ["bng-structure", "--group", '{"invariant_factors":[61]}', "--n", "2"],
    ),
]


class TestGolden:
    @pytest.mark.parametrize("name,args", GOLDEN_CASES)
    def test_byte_exact(self, name, args):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / name).read_text()

    def test_output_is_stable_across_runs(self):
        a = run_cli("example-d8").stdout
        b = run_cli("example-d8").stdout
        assert a == b


class TestInputModes:
    def test_stdin(self):
        proc = run_cli("bng-structure", "--group", "-", "--n", "2", stdin=Z3)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"free_rank": 1, "torsion": []}

    def test_file(self, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(Z3)
        proc = run_cli("bng-structure", "--group", str(path), "--n", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"free_rank": 1, "torsion": []}

    def test_missing_file(self):
        proc = run_cli("bng-structure", "--group", "nope.json", "--n", "2")
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    @pytest.mark.parametrize("command", ["canon", "bng-structure"])
    def test_file_not_utf8(self, tmp_path, command):
        path = tmp_path / "group.json"
        path.write_bytes(b"\xff\xfe{")
        other = ["--symbol", "{}"] if command == "canon" else ["--n", "2"]
        proc = run_cli(command, "--group", str(path), *other)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: ")
        assert proc.stderr.count("\n") == 1


class TestInputBound:
    def test_file_past_the_bound(self, tmp_path, monkeypatch, capsys):
        # a file of exactly the bound is read; one character more is refused
        path = tmp_path / "group.json"
        path.write_text(Z3)
        monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(Z3))
        assert cli.run(["bng-structure", "--group", str(path), "--n", "2"]) == 0
        assert capsys.readouterr().out == '{"free_rank":1,"torsion":[]}\n'
        monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(Z3) - 1)
        assert cli.run(["bng-structure", "--group", str(path), "--n", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"size error: input {str(path)!r} is longer than the bound 24 characters\n"

    def test_stdin_past_the_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(Z3))
        monkeypatch.setattr(sys, "stdin", io.StringIO(Z3 + " "))
        assert cli.run(["bng-structure", "--group", "-", "--n", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "size error: input '-' is longer than the bound 25 characters\n"

    def test_endless_file(self):
        # /dev/zero never ends: refused after one read past the bound
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", "bng-structure", "--group", "/dev/zero", "--n", "2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error: input '/dev/zero' is longer than")
        assert proc.stderr.count("\n") == 1

    def test_bound_admits_the_largest_table(self):
        # every row of a Cayley table is a permutation of 0..order - 1, so
        # rows are as long as range(order) is, under either separator
        from burnside.groups import MAX_GROUP_ORDER

        for separators in ((",", ":"), (", ", ": ")):
            row = len(json.dumps(list(range(MAX_GROUP_ORDER)), separators=separators))
            wrapper = json.dumps({"type": "table", "cayley": []}, separators=separators)
            table = MAX_GROUP_ORDER * row + (MAX_GROUP_ORDER - 1) * len(separators[0])
            assert len(wrapper) + table <= cli.MAX_INPUT_CHARS


class TestExitCodes:
    def test_invalid_json_group(self):
        proc = run_cli("bng-structure", "--group", "{bad json", "--n", "2")
        assert proc.returncode == 2

    def test_invalid_invariant_factors(self):
        proc = run_cli(
            "bng-structure", "--group", '{"invariant_factors":[4,2]}', "--n", "2"
        )
        assert proc.returncode == 2

    def test_size_error(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "burnside.cli",
                "bng-structure",
                "--group",
                '{"invariant_factors":[8,8]}',
                "--n",
                "3",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PATH": ""},
            timeout=60,
        )
        assert proc.returncode == 3
        assert "size error" in proc.stderr

    def test_relation_size_bound(self):
        # each is over a bound: exit 3 before enumerating, and the message
        # names the bound, not a number too long to print.  The relation
        # matrix implied by 500,500 candidate multisets of Z/1000 is over the
        # cells bound; so is the count C(6 * 10**6 - 1, 3 * 10**6), whose
        # exact value would take minutes to build; and so are two groups of
        # order 2**20000, as a presentation and as a table.  The relation
        # rows of verify-prop71 are priced at about 2**n position sets per
        # generator, and bng-structure's C(n, 2) per generator grows as n**3
        twos = json.dumps([2] * 20000)
        symbol = '{"subgroup":[0],"field":{"atom":{"name":"k","trdeg":1}},"beta":[],"n":1}'
        for argv in (
            ["bng-structure", "--group", '{"invariant_factors":[1000]}', "--n", "2"],
            ["bng-structure", "--group", '{"invariant_factors":[3000000]}',
             "--n", "3000000"],
            ["bng-structure", "--group", '{"invariant_factors":[1000000]}',
             "--n", "1000000"],
            ["bng-structure", "--group", '{"invariant_factors":%s}' % twos, "--n", "2"],
            ["canon", "--group", '{"type":"abelian","invariant_factors":%s}' % twos,
             "--symbol", symbol],
            ["verify-prop71", "--group", '{"invariant_factors":[2]}', "--n", "24"],
            ["verify-prop71", "--group", '{"invariant_factors":[3]}', "--n", "14"],
            ["verify-prop71", "--group", '{"invariant_factors":[]}', "--n", "30"],
            ["bng-structure", "--group", '{"invariant_factors":[]}', "--n", "800"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "burnside.cli", *argv],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 3, argv[:3]
            assert proc.stdout == ""
            assert proc.stderr.startswith("size error: ")
            assert proc.stderr.count("\n") == 1

    def test_group_order_bound(self):
        # Z/2500 is over MAX_GROUP_ORDER: exit 3 before its table is built
        symbol = '{"subgroup":[0],"field":{"atom":{"name":"k","trdeg":1}},"beta":[],"n":1}'
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "burnside.cli",
                "canon",
                "--group",
                '{"type":"abelian","invariant_factors":[2500]}',
                "--symbol",
                symbol,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error: ")
        assert proc.stderr.count("\n") == 1

    def test_permutation_group_order_bound(self):
        # S8 (order 40,320) is over MAX_GROUP_ORDER: exit 3 during the
        # closure, before a row of its table is built
        symbol = '{"subgroup":[0],"field":{"atom":{"name":"k","trdeg":1}},"beta":[],"n":1}'
        group = json.dumps(
            {
                "type": "permutation",
                "degree": 8,
                "generators": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],
            }
        )
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", "canon", "--group", group, "--symbol", symbol],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error: ")
        assert proc.stderr.count("\n") == 1

    def test_abelian_subgroup_bound(self):
        # (Z/2)^7 has 29,212 abelian subgroups, over MAX_ABELIAN_SUBGROUPS
        symbol = '{"subgroup":[0],"field":{"atom":{"name":"k","trdeg":1}},"beta":[],"n":1}'
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "burnside.cli",
                "canon",
                "--group",
                '{"type":"abelian","invariant_factors":[2,2,2,2,2,2,2]}',
                "--symbol",
                symbol,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error: ")
        assert proc.stderr.count("\n") == 1

    def test_exponent_bound(self, capsys):
        # 1000036000099 = 1000003 * 1000033: no exponent is factored, so
        # none is too large
        argv = ["wedge", "--x", "[[1]]", "--y", "[[1]]", "--group"]
        assert cli.run(argv + ['{"invariant_factors":[1000036000099]}']) == 0
        out, err = capsys.readouterr()
        assert out == '{"equivalent":true}\n'
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["canon", "--group", "x", "--symbol", "y", "--format", "csv"],
            ["bng-structure", "--group", Z3],
        ],
        ids=["unknown-flag", "missing-n"],
    )
    def test_usage_error_returns_input_code(self, argv, capsys):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bng-reduce", "--group", Z3, "--n", "2", "--class", '[["a"],[1]]'],
            ["wedge", "--group", '{"invariant_factors":[2,2]}',
             "--x", "[[1,0],[0,1]]", "--y", '[[1,0],[0,"q"]]'],
            ["wedge", "--group", Z3, "--x", "[[1]]", "--y", "[[true]]"],
            ["canon", "--group", '{"type":"permutation","degree":"x","generators":[]}',
             "--symbol", "{}"],
            ["canon", "--group", '{"type":"permutation","degree":3,"generators":5}',
             "--symbol", "{}"],
            ["canon", "--group", '{"type":"table","cayley":5}', "--symbol", "{}"],
            ["canon", "--group", '{"type":"table","cayley":[["a"]]}', "--symbol", "{}"],
            ["canon", "--group", '{"type":"abelian","invariant_factors":[3]}',
             "--symbol",
             '{"subgroup":5,"field":{"atom":{"name":"k","trdeg":0}},"beta":[[1]],"n":1}'],
            ["wedge", "--group", Z3, "--x", "[[1]]", "--y", "[" * 100000],
            ["bng-structure", "--group",
             '{"invariant_factors":[%s]}' % ("1" * 5000), "--n", "2"],
        ],
        ids=[
            "class-string",
            "wedge-string",
            "wedge-bool",
            "degree-string",
            "generators-int",
            "cayley-int",
            "cayley-string",
            "subgroup-int",
            "nested-too-deep",
            "int-over-digit-limit",
        ],
    )
    def test_malformed_entries_return_input_code(self, argv, capsys):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: ")
        assert err.count("\n") == 1

    def test_bad_permutation_message_is_short(self, tmp_path, capsys):
        # a 200,000-point generator with a repeated point: the message echoes
        # a prefix and the length, not 1.5 MB of the permutation
        d = 200_000
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"type": "permutation", "degree": d,
                                    "generators": [[0, *range(d - 1)]]}))
        assert cli.run(["canon", "--group", str(path), "--symbol", "{}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: not a permutation of {d} points: [0, 0, 1, ")
        assert err.endswith(f", ...] of length {d}\n")
        assert len(err.encode()) < 200 and err.count("\n") == 1

    def test_long_degree_message_is_short(self):
        # a 4,001-digit degree is named by its leading digits and digit count
        degree = "9" * 4001
        group = '{"type":"permutation","degree":%s,"generators":[[0]]}' % degree
        proc = run_cli("canon", "--group", group, "--symbol", "{}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        head = "input error: not a permutation of 999999999999... (4001 digits) points"
        assert proc.stderr.startswith(head)
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["bng-reduce", "--class", "[[1],[1],[1]]"],
            ["bng-equal", "--x", "[[1],[1],[1]]", "--y", "[[1],[2]]"],
        ],
        ids=["reduce", "equal"],
    )
    def test_class_of_wrong_size(self, argv, capsys):
        # named as a size mismatch, not as a tuple that fails to generate
        assert cli.run([*argv, "--group", Z3, "--n", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: tuple has 3 characters, not n = 2\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("command", ["bng-structure", "verify-prop71"])
    def test_nonpositive_dimension(self, command, n, capsys):
        assert cli.run([command, "--group", Z3, "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: dimension n = {n} must be positive\n"

    def test_format_only_on_bng_structure(self):
        group = '{"type":"abelian","invariant_factors":[3]}'
        symbol = '{"subgroup":[0,1,2],"field":{"atom":{"name":"k","trdeg":0}},"beta":[[1],[1]],"n":2}'
        proc = run_cli("canon", "--group", group, "--symbol", symbol, "--format", "csv")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_non_generating_class(self, capsys):
        # the tuple is named reduced and sorted, whatever the input's entries
        for cls in ("[[0],[0]]", "[[3],[3]]"):
            assert cli.run(["bng-reduce", "--group", Z3, "--n", "2", "--class", cls]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "input error: tuple ((0,), (0,)) is not a generator (must generate A)\n"
            )

    def test_unreduced_class_reads_as_reduced(self, capsys):
        # entries are reduced modulo the factors and the multiset sorted
        # before the generator is looked up
        forms = []
        for cls in ("[[1],[2]]", "[[4],[5]]", "[[5],[-2]]"):
            assert cli.run(["bng-reduce", "--group", Z3, "--n", "2", "--class", cls]) == 0
            forms.append(capsys.readouterr().out)
        assert forms[0] == forms[1] == forms[2]


class TestOtherCommands:
    def test_bng_equal(self):
        proc = run_cli(
            "bng-equal",
            "--group",
            Z3,
            "--n",
            "2",
            "--x",
            "[[1],[1]]",
            "--y",
            "[[0],[1]]",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"equal": True}

    def test_canon_merges_conjugates(self):
        group = '{"type":"permutation","degree":4,"generators":[[1,2,3,0],[2,1,0,3]]}'
        symbol = json.dumps(
            {
                "subgroup": [0, 2, 3, 7],
                "field": {"atom": {"name": "k", "trdeg": 0}},
                "beta": [[0, 1], [1, 1]],
                "n": 2,
            }
        )
        proc = run_cli("canon", "--group", group, "--symbol", symbol)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["subgroup"] == [0, 2, 3, 7]
        assert out["beta"] == sorted(out["beta"])

    def test_canon_on_large_cyclic_group(self):
        # the full subgroup of Z/1000: the closure test, element orders and
        # coordinates cost one row or one product per element, and the
        # timeout catches quadratic work in Python
        symbol = json.dumps(
            {
                "subgroup": list(range(1000)),
                "field": {"atom": {"name": "k", "trdeg": 0}},
                "beta": [[7], [1]],
                "n": 2,
            }
        )
        group = '{"type":"abelian","invariant_factors":[1000]}'
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", "canon", "--group", group, "--symbol", symbol],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["beta"] == [[1], [7]]

    @pytest.mark.parametrize(
        "command,want",
        [
            ("bng-structure", {"free_rank": 7, "torsion": [2] * 9}),
            ("verify-prop71", {"row_spaces_equal": True}),
            # (1, 1, 1) is zero in B_3(Z/20), so its coordinates are zeros
            # in every basis: adding its unit row changes no rank over F_2 or
            # over a large prime
            ("bng-reduce", {"normal_form": {"free": [0] * 7, "torsion": [0] * 9}}),
            ("bng-equal", {"equal": True}),
        ],
    )
    def test_b3_z20_answers(self, command, want):
        # 1,304 generators, inside the size bound: in the dense loop's pivot
        # order the structure queries ran past 300 s and 500 MiB, and a
        # class query replaying that order past 13 minutes; the timeout
        # catches a return of that order
        gen = "[[1],[1],[1]]"
        args = {"bng-reduce": ["--class", gen], "bng-equal": ["--x", gen, "--y", gen]}
        group = '{"invariant_factors":[20]}'
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", command, "--group", group, "--n", "3",
             *args.get(command, [])],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want

    def test_canon_on_s6_table(self, capsys):
        # the table path checks associativity by Light's test, not by all
        # 720^3 triples
        elems = permutation_closure(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])
        table = table_by_composition(elems, compose_permutations)
        group = json.dumps({"type": "table", "cayley": table})
        # element 2 is the transposition (0 1)
        symbol = json.dumps(
            {
                "subgroup": [0, 2],
                "field": {"atom": {"name": "k", "trdeg": 0}},
                "beta": [[1]],
                "n": 1,
            }
        )
        start = time.perf_counter()
        assert cli.run(["canon", "--group", group, "--symbol", symbol]) == 0
        assert time.perf_counter() - start < 5
        out = json.loads(capsys.readouterr().out)
        assert len(out["subgroup"]) == 2

    def test_expand(self):
        group = '{"type":"abelian","invariant_factors":[3]}'
        symbol = json.dumps(
            {
                "subgroup": [0, 1, 2],
                "field": {"atom": {"name": "k", "trdeg": 0}},
                "beta": [[1], [1]],
                "n": 2,
            }
        )
        proc = run_cli("expand", "--group", group, "--symbol", symbol, "--i", "0", "--j", "1")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["vanished_by"] == "equal_weights"
        assert out["raw_theta1"] == []
        assert len(out["raw_theta2"]) == 1

    def test_example_d8_report_fields(self):
        out = json.loads(run_cli("example-d8").stdout)
        assert out["vanished_by"] == "none"
        assert out["theta2_in_reflection_class"] is True
        assert len(out["raw_theta1"]) == 2
        assert len(out["raw_theta2"]) == 1


# Arbitrary JSON, mixed into objects shaped like groups, symbols and field
# labels so that the checks deep inside them are reached.  Integers stay
# small, so every group that parses has a small order.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
_GROUP = st.fixed_dictionaries(
    {"type": st.sampled_from(["abelian", "permutation", "table"]) | _JSON},
    optional={
        "invariant_factors": st.just([2, 4]) | _JSON,
        "degree": st.integers(0, 4) | _JSON,
        "generators": st.just([[1, 2, 3, 0]]) | _JSON,
        "cayley": st.just([[0, 1], [1, 0]]) | _JSON,
    },
)
_FIELD = st.deferred(
    lambda: st.fixed_dictionaries(
        {
            "atom": st.fixed_dictionaries(
                {"name": st.just("k") | _JSON, "trdeg": st.integers(0, 2) | _JSON},
                optional={"deg": _JSON, "components": _JSON},
            )
            | _JSON
        }
    )
    | st.fixed_dictionaries(
        {"constr_a": st.fixed_dictionaries({"base": _FIELD | _JSON, "chars": _JSON})}
    )
)
_SYMBOL = st.fixed_dictionaries(
    {
        "subgroup": st.sampled_from([[0, 1, 2, 3], [0, 2]]) | _JSON,
        "field": _FIELD | _JSON,
        "beta": st.just([[1], [3]]) | _JSON,
        "n": st.integers(0, 3) | _JSON,
    }
)
_Z4 = '{"type":"abelian","invariant_factors":[4]}'
_Z4_SYMBOL = (
    '{"subgroup":[0,1,2,3],"field":{"atom":{"name":"k","trdeg":0}},'
    '"beta":[[1],[3]],"n":2}'
)


class TestFuzz:
    """Arbitrary JSON exits 0, 2 or 3 with at most one stderr line."""

    @pytest.mark.parametrize(
        "argv,values",
        [
            (["bng-structure", "--group", None, "--n", "1"], _GROUP | _JSON),
            (["bng-reduce", "--group", Z3, "--n", "2", "--class", None], _JSON),
            (["bng-equal", "--group", Z3, "--n", "2", "--x", None, "--y", "[[1]]"], _JSON),
            (["wedge", "--group", Z3, "--x", "[[1]]", "--y", None], _JSON),
            (["canon", "--group", None, "--symbol", _Z4_SYMBOL], _GROUP | _JSON),
            (["canon", "--group", _Z4, "--symbol", None], _SYMBOL | _JSON),
        ],
        ids=["group", "class", "x", "y", "finite-group", "symbol"],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json(self, argv, values, data):
        value = json.dumps(data.draw(values))
        # a dumped bare string is quoted, so it is never read as a file path
        argv = [value if a is None else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1


def _parse(parse, argv):
    """What ``parse`` makes of argv: the namespace, the usage error, or the
    help text and exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parse(argv))
    except InputError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()


PARSE_ARGVS = [
    [],
    ["--help"],
    ["-h", "bng-structure"],
    ["bogus"],
    ["bng-structure", "--group", Z3],
    ["bng-structure", "--group", Z3, "--n", "x"],
    ["bng-structure", "--group", Z3, "--n", "2", "--format", "xml"],
    ["bng-structure", "--group", Z3, "--n", "2", "extra"],
    ["canon", "--group", "x", "--symbol", "y", "--format", "csv"],
    *([name, "--help"] for name in cli.COMMANDS),
    *(args for _, args in GOLDEN_CASES),
]


class TestParserPerCommand:
    """A call builds only the parser of the subcommand its first argument
    names, and, fed the rest of the line as ``run`` feeds it, that parser
    answers every command line as the full parser does."""

    @pytest.mark.parametrize("argv", PARSE_ARGVS)
    def test_same_as_full_parser(self, argv):
        got = _parse(cli.parse_args, argv)
        assert got == _parse(cli.build_parser().parse_args, argv)

    def test_named_command_builds_one_subparser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def subcommands(parser):
            return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for name in cli.COMMANDS:
            built.clear()
            cli.build_parser([name, "--help"])
            assert [p.prog for p in built] == [f"burnside {name}"]
            assert subcommands(built[0]) == []
        for argv in ([], ["--help"], ["bogus"], ["-h", "canon"]):
            built.clear()
            cli.build_parser(argv)
            assert [p.prog for p in built[1:]] == [f"burnside {n}" for n in cli.COMMANDS]
            assert len(subcommands(built[0])) == 1

    def test_full_parser_lists_the_table_in_order(self):
        (sub,) = (
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert len(cli.COMMANDS) == 8
        assert list(sub.choices) == list(cli.COMMANDS)

    def test_every_run_builds_its_own_parser(self, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting(argv=()):
            built.append(build_parser(argv))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        argv = ["bng-structure", "--group", Z3, "--n", "2"]
        assert [cli.run(argv) for _ in range(3)] == [0, 0, 0]
        assert len(built) == 3 and len({id(p) for p in built}) == 3

    def test_run_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["burnside", "example-d8"])
        assert cli.run() == 0
        assert capsys.readouterr().out == (GOLDEN / "example_d8.json").read_text()
