import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burnside import cli

GOLDEN = Path(__file__).parent / "golden"
Z3 = '{"invariant_factors":[3]}'


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "burnside.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


class TestGolden:
    @pytest.mark.parametrize(
        "name,args",
        [
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
        ],
    )
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
            env={**os.environ, "PATH": "", "BURNSIDE_MAX_CANDIDATES": "10"},
            timeout=60,
        )
        assert proc.returncode == 3
        assert "size error" in proc.stderr

    def test_relation_size_bound(self):
        # 500,500 candidate multisets pass the candidate bound, but the
        # relation matrix they imply does not: exit 3 before enumerating
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "burnside.cli",
                "bng-structure",
                "--group",
                '{"invariant_factors":[1000]}',
                "--n",
                "2",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("size error: ")
        assert proc.stderr.count("\n") == 1

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

    def test_format_only_on_bng_structure(self):
        group = '{"type":"abelian","invariant_factors":[3]}'
        symbol = '{"subgroup":[0,1,2],"field":{"atom":{"name":"k","trdeg":0}},"beta":[[1],[1]],"n":2}'
        proc = run_cli("canon", "--group", group, "--symbol", symbol, "--format", "csv")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_non_generating_class(self):
        proc = run_cli(
            "bng-reduce", "--group", Z3, "--n", "2", "--class", "[[0],[0]]"
        )
        assert proc.returncode == 2


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
