"""Guards for the benchmark itself.

    python3 -m pytest perfbench/tests

Same seed, same op list and answers; another seed, another op list;
tracing changes no answer; op and set-up times are scaled by the
reference loop; the frozen structures agree with sympy, an
elimination independent of the package; the metric lists agree with
BENCHMARK.json; and without the package the benchmark exits with an error
and prints no result.
"""

import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from workloads import (
    QUERY_PRESENTATIONS,
    WORKLOADS,
    blowup_relation,
    load_frozen,
    presentation_key,
    table_pairs,
)

ROOT = Path(__file__).resolve().parents[2]


def one_pass(ops, tracer=None):
    tally = run.Tally()
    runner = run.Runner(ops, tally, tracer)
    runner.run_pass()
    assert tally.failed == 0, tally.messages
    return runner.digests[0]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def built(request):
    setup = WORKLOADS[request.param]
    pkg = run.load_package()
    ops = setup(1, pkg).ops
    return setup, pkg, ops, one_pass(ops)


def test_same_seed_same_ops_and_answers(built):
    setup, pkg, ops, digest = built
    again = setup(1, pkg).ops
    assert [op.desc for op in again] == [op.desc for op in ops]
    assert one_pass(again) == digest


def test_other_seed_other_ops(built):
    setup, pkg, ops, _ = built
    other = setup(2, pkg).ops
    assert [op.desc for op in other] != [op.desc for op in ops]


@pytest.mark.parametrize("counters", [False, True], ids=["spans", "counts"])
def test_tracing_changes_no_answer(built, counters):
    _, _, ops, digest = built
    tracer = spans.Tracer()
    tracer.install(counters)
    try:
        traced = one_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    calls, _ = tracer.take_pass()
    counts, _ = tracer.take_counts()
    assert sum(counts.values() if counters else calls.values()) > 0
    assert traced == digest


def test_times_are_scaled_by_the_reference_loop(built, monkeypatch):
    _, _, ops, _ = built
    monkeypatch.setattr(run, "reference_time", lambda: 2 * run.REFERENCE_S)
    runner = run.Runner(ops, run.Tally())
    times = runner.run_pass()
    assert runner.scales == [pytest.approx(0.5)]
    assert sum(times) == pytest.approx(runner.raw_s[0] / 2)


def test_set_up_is_scaled_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(run, "reference_time", lambda: 2 * run.REFERENCE_S)
    handler = signal.getsignal(signal.SIGALRM)
    result, raw, scaled = run.scaled_call(lambda: time.sleep(0.1) or "built")
    assert result == "built"
    assert raw > 0
    assert scaled == pytest.approx(raw / 2)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_span_cost_is_positive_and_keeps_spans():
    tracer = spans.Tracer()
    tracer.spans = [("x", 0.0, 1.0, -1)]
    assert 0 < tracer.span_cost() < 1e-3
    assert tracer.spans == [("x", 0.0, 1.0, -1)]


def _elements(factors):
    return list(itertools.product(*(range(m) for m in factors)))


def _generates(factors, chars):
    zero = tuple(0 for _ in factors)
    seen, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for c in chars:
            nxt = tuple((x + y) % m for x, y, m in zip(cur, c, factors))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(_elements(factors))


def sympy_structure(factors, n):
    """Structure of B_n(A) from sympy's Smith form of the blow-up relations,
    with generators and rows built here rather than by the package."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    gens = [
        g
        for g in itertools.combinations_with_replacement(_elements(factors), n)
        if _generates(factors, g)
    ]
    index = {g: k for k, g in enumerate(gens)}
    rows = []
    for g in gens:
        for p, q in itertools.combinations(range(n), 2):
            row = [0] * len(gens)
            for h, c in blowup_relation(factors, g, p, q).items():
                row[index[h]] += c
            rows.append(row)
    S = smith_normal_form(Matrix(rows))
    diag = [abs(S[i, i]) for i in range(min(S.shape))]
    nonzero = [d for d in diag if d]
    return {
        "free_rank": len(gens) - len(nonzero),
        "torsion": sorted(int(d) for d in nonzero if d > 1),
    }


SMALL_AND_MID = [
    (factors, n)
    for factors, n in dict.fromkeys(table_pairs() + list(QUERY_PRESENTATIONS))
    if math.comb(math.prod(factors) + n - 1, n) <= 300
]


@pytest.mark.parametrize(
    "factors,n", SMALL_AND_MID, ids=[presentation_key(f, n) for f, n in SMALL_AND_MID]
)
def test_frozen_structure_matches_sympy(factors, n):
    want = load_frozen()["structures"][presentation_key(factors, n)]
    assert sympy_structure(factors, n) == want


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert sorted(run.SETUP_REPEATS) == sorted(WORKLOADS)


def test_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bn_structure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
