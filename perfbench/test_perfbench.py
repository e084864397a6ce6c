"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stovar.cli  # noqa: E402
from checks import FLOAT_TOLERANCE, check_report  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORK, Session, measure  # noqa: E402
from tracer import Span, layer_totals  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

TINY = {
    "dense-float": [3, 5],
    "dense-rational": [3, 5],
    "slow-mixing": [4, 5, 6],
    "no-contraction": [6, 7, 8],
}
SEED = 7  # not the digest seed: tiny sets have no committed digests
COUNT_METRICS = [
    name
    for name in PER_LAYER_UNITS
    if name.endswith((".calls", "abs_diffs", "mult_adds", "powers_scanned", "max_bits"))
    or name.startswith("cli.bytes_")
]


def _benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _variation(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    return max(
        (sum(abs(rows[i][j] - rows[i][k]) for i in range(n)) for j in range(n) for k in range(j + 1, n)),
        default=Fraction(0),
    ) / 2


def _product(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _reference_power(rows, guard: Fraction, p_max: int):
    """Smallest p with var(M^p) < 1 - guard, by plain Fraction arithmetic."""
    power = [list(row) for row in rows]
    for p in range(1, p_max + 1):
        if _variation(power) < 1 - guard:
            return p
        power = _product(power, rows)
    return None


def _flip_first_digit(token: str) -> str:
    i = next(k for k, c in enumerate(token) if c.isdigit())
    return token[:i] + str((int(token[i]) + 1) % 10) + token[i + 1 :]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    first = generate(workload, SEED, TINY[workload])
    second = generate(workload, SEED, TINY[workload])
    assert [i.text() for i in first] == [i.text() for i in second]
    assert first == second


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_known_answers_match_a_reference_scan(workload):
    for inst in generate(workload, SEED, TINY[workload]):
        guard = Fraction(0) if inst.rational else Fraction(FLOAT_TOLERANCE)
        assert _reference_power(inst.entries, guard, p_max=12) == inst.power, inst.name


def test_slow_mixing_signed_instances_have_negative_entries():
    signed = [i for i in generate("slow-mixing", SEED, TINY["slow-mixing"]) if i.kind in ("signed", "worked")]
    assert [i.kind for i in signed].count("signed") == 2
    for inst in signed:
        assert any(v < 0 for row in inst.entries for v in row), inst.name
        assert all(sum(col) == 1 for col in zip(*inst.entries)), inst.name


def test_default_sets_take_every_size_in_range():
    for workload, (_, sizes) in WORKLOADS.items():
        instances = generate(workload, SEED)
        assert set(sizes) <= {i.n for i in instances}, workload
    slow = generate("slow-mixing", SEED)
    signed_share = sum(any(v < 0 for row in i.entries for v in row) for i in slow) / len(slow)
    assert 0.3 < signed_share < 0.4


@pytest.mark.parametrize("rational", [True, False])
def test_check_rejects_one_flipped_digit_in_e(tmp_path, rational):
    workload = "dense-rational" if rational else "dense-float"
    inst = generate(workload, SEED, [4])[0]
    session = Session([inst], tmp_path / "work")
    try:
        session.round()
    finally:
        session.close()
    good = session.checked[0]
    assert good is not None and check_report(inst, 0, good) is None
    report = json.loads(good)
    report["stationary"][0] = _flip_first_digit(report["stationary"][0])
    assert check_report(inst, 0, json.dumps(report).encode()) is not None
    assert check_report(inst, 3, good) is not None
    assert check_report(inst, 0, b"Traceback (most recent call last):") is not None


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_report_is_counted_as_failed(monkeypatch, trace):
    original = stovar.cli.analysis_report

    def corrupted(*args, **kwargs):
        report = original(*args, **kwargs)
        report["stationary"][0] = _flip_first_digit(report["stationary"][0])
        return report

    monkeypatch.setattr(stovar.cli, "analysis_report", corrupted)
    result, _ = measure("dense-rational", SEED, 0, trace, sizes=TINY["dense-rational"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    if not trace:
        assert result["metrics"]["passed_ratio"]["value"] == 0.0


def test_digest_mismatch_is_a_failure(tmp_path):
    instances = generate("slow-mixing", SEED, [4])
    session = Session(instances, tmp_path / "work", digests={i.name: "0" * 64 for i in instances})
    try:
        session.round()
    finally:
        session.close()
    assert session.failed == len(instances)


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_prints_with_its_unit(trace):
    spec = _benchmark_spec()
    named = spec["per_layer"] if trace else spec["end_to_end"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in named} == units
    for workload in sorted(WORKLOADS):
        result, meta = measure(workload, SEED, 0, trace, sizes=TINY[workload])
        printed = json.loads(json.dumps(result))
        assert printed["correct"] and printed["failed"] == 0, workload
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in printed["metrics"].values())
        assert meta["seed"] == SEED and meta["nproc"] >= 1


def test_trace_counts_repeat_and_match_the_analyze_path():
    def counts(workload):
        result, _ = measure(workload, SEED, 0, True, sizes=TINY[workload])
        return {k: result["metrics"][k]["value"] for k in COUNT_METRICS}

    for workload in ("dense-float", "dense-rational"):
        c = counts(workload)
        assert c == counts(workload)
        assert c["core.mat_mul.calls"] == 0
        assert c["core.variation.calls"] == 2  # the scan, then the report again
        assert c["core.type_of.calls"] == 3
    nc = counts("no-contraction")
    assert nc["analysis.powers_scanned"] == 64
    assert nc["core.mat_mul.calls"] == 63
    assert nc["core.variation.calls"] == 65
    assert nc["core.type_of.calls"] == 2
    assert nc["core.rational.max_bits"] == 0


def test_tracer_restores_the_patched_functions():
    before = (stovar.cli.parse_matrix, stovar.cli.variation, json.dumps)
    measure("slow-mixing", SEED, 0, True, sizes=[4])
    assert (stovar.cli.parse_matrix, stovar.cli.variation, json.dumps) == before


def test_self_time_subtracts_direct_children_after_scaling():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, 0),
        Span("a", 1.0, 5.0, 0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0, 7),
        Span("b", 6.0, 7.0, 0, 0, 5),
    ]
    totals = layer_totals(spans, {0: 2.0})
    assert totals["root"].self_seconds == 10.0
    assert totals["a"].self_seconds == 6.0
    assert (totals["b"].calls, totals["b"].seconds, totals["b"].work) == (2, 4.0, 12)


def test_fails_without_printing_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "dense-float", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / WORK.name).exists()
