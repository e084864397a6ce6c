"""Closed-loop benchmark of ``stovar analyze FILE --json``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-float --seed 1 --seconds 12 --trace 0

The matrix files are generated from ``--seed`` (see workloads.py) and the
command runs in-process through its click entry point, one file at a time
on one thread: the next file is submitted only after the previous report
is complete.  Every workload is one fixed set of files, run in rounds.
The first report of each file is checked in full (checks.py) outside the
timed region; every later report of that file must equal it byte for byte.

``--trace 0`` times rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``) and prints the end-to-end metrics.  Each command's time is
scaled by the calibration in calibration.py; a matrix's latency is the
median of its rounds, and the percentiles are taken over the matrices of
the set.  ``--trace 1`` alternates untraced and traced rounds (tracer.py)
and prints the per-layer metrics, per matrix; spans go to
``.perfbench-out/``.  The last line of stdout is the result object; the
line before it is the run's metadata.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

from calibration import kernel_seconds, scaled
from checks import check_report, digest, load_digests
from tracer import ROOT_SPAN, LayerTotals, Tracer, layer_totals
from workloads import WORKLOADS, Instance, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"  # generated matrix files, removed after the run
OUT = ROOT / ".perfbench-out"  # spans of traced runs

MIN_ROUNDS = 6  # a matrix's latency is the median of at least this many runs
SETUP_REPEATS = 15

# The child times its own import of stovar.cli, then calibrates; the
# calibration comes after the import so that it imports nothing for it.
SETUP_CODE = f"""
import sys, time
start = time.perf_counter()
import stovar.cli
seconds = time.perf_counter() - start
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from calibration import REFERENCE_SECONDS, kernel_seconds
kernel = sorted(kernel_seconds() for _ in range(3))[1]
print(seconds * REFERENCE_SECONDS / kernel, seconds)
"""

END_TO_END_UNITS = {
    "analyze_ms_p50": "ms",
    "analyze_ms_p90": "ms",
    "matrices_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "core.variation.ms": "ms",
    "core.variation.calls": "count",
    "core.variation.abs_diffs": "count",
    "core.mat_mul.ms": "ms",
    "core.mat_mul.calls": "count",
    "core.mat_mul.mult_adds": "count",
    "core.mat_mul.mult_adds_per_s": "1/s",
    "core.type_of.ms": "ms",
    "core.type_of.calls": "count",
    "core.rational.max_bits": "bits",
    "analysis.stationary_vector.ms": "ms",
    "analysis.analyze.self_ms": "ms",
    "analysis.powers_scanned": "count",
    "analysis.bounds.ms": "ms",
    "cli.parse_matrix.ms": "ms",
    "cli.analysis_report.self_ms": "ms",
    "cli.json_dumps.ms": "ms",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ms": "ms",
}


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: bytes
    error: Optional[str]  # traceback of an exception that escaped the command


class InProcessCli:
    """Runs the stovar click command in this process, as its console script does.

    One stdout and one stderr stream serve every call.  click caches a text
    wrapper per stream object that keeps the stream alive, so a fresh
    stream per call (what click.testing.CliRunner makes) would hold on to
    every call's output and grow the process by megabytes per round.
    """

    def __init__(self) -> None:
        from stovar.cli import main

        self._main = main
        self._stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        self._stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")

    @staticmethod
    def _drain(stream: io.TextIOWrapper) -> bytes:
        stream.flush()
        data = stream.buffer.getvalue()
        stream.seek(0)
        stream.truncate()
        return data

    def __call__(self, args: list[str]) -> Outcome:
        error = None
        with redirect_stdout(self._stdout), redirect_stderr(self._stderr):
            try:
                self._main.main(args=args, prog_name="stovar")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an escaping exception is a failed report, not a crash
                code, error = 1, traceback.format_exc()
        self._drain(self._stderr)
        return Outcome(code, self._drain(self._stdout), error)


class Session:
    """The instances of one run, their files, and the check of every report."""

    def __init__(
        self, instances: list[Instance], workdir: Path, digests: Optional[dict[str, str]] = None
    ):
        self._cli = InProcessCli()
        self.instances = instances
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.paths = []
        for inst in instances:
            path = workdir / f"{inst.name}.csv"
            path.write_text(inst.text(), encoding="utf-8")
            self.paths.append(os.path.relpath(path))
        self._digests = digests
        self.checked: dict[int, Optional[bytes]] = {}  # first report, None if it failed
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _run(self, index: int) -> Outcome:
        return self._cli(["analyze", self.paths[index], "--json"])

    def _check_first(self, index: int, result: Outcome) -> Optional[str]:
        if result.error is not None:
            return f"exception escaped: {result.error.splitlines()[-1]}"
        inst = self.instances[index]
        reason = check_report(inst, result.exit_code, result.stdout)
        if reason is None and self._digests is not None:
            if self._digests.get(inst.name) != digest(result.stdout):
                return "report differs from the committed digest"
        return reason

    def _record(self, index: int, result: Outcome) -> None:
        """Check the first report of a file in full, and later ones against it."""
        self.attempted += 1
        if index not in self.checked:
            reason = self._check_first(index, result)
            self.checked[index] = None if reason else result.stdout
        elif self.checked[index] is None:
            reason = "the first report of this file failed its check"
        elif result.error is not None:
            reason = f"exception escaped: {result.error.splitlines()[-1]}"
        elif result.exit_code != self.instances[index].exit_code or result.stdout != self.checked[index]:
            reason = "report differs from the first report of this file"
        else:
            reason = None
        if reason:
            self.failed += 1
            self.reasons.append(f"{self.instances[index].name}: {reason}")

    def prime(self) -> None:
        """One untimed command, so lazy set-up is done before timing starts."""
        self._record(0, self._run(0))

    def round(self, tracer: Optional[Tracer] = None) -> tuple[list[float], list[float]]:
        """Run every instance once; return scaled and raw seconds per command.

        A calibration kernel runs between consecutive commands, so each
        command is timed between two kernel runs.
        """
        scaled_times, raw_times = [], []
        kernel_before = kernel_seconds()
        for i in range(len(self.instances)):
            matrix = self.attempted
            start = perf_counter()
            if tracer is None:
                result = self._run(i)
            else:
                with tracer.command(matrix):
                    result = self._run(i)
            raw = perf_counter() - start
            kernel_after = kernel_seconds()
            scaled_times.append(scaled(raw, kernel_before, kernel_after))
            raw_times.append(raw)
            if tracer is not None:
                tracer.scale[matrix] = scaled_times[-1] / raw
            kernel_before = kernel_after
            self._record(i, result)
        return scaled_times, raw_times

    def reports(self) -> list[tuple[Instance, dict]]:
        """The parsed first report of every instance that passed its check."""
        return [
            (self.instances[i], json.loads(out)) for i, out in sorted(self.checked.items()) if out is not None
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure_setup_seconds() -> tuple[float, float]:
    """Median scaled and raw time for a fresh interpreter to import stovar.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled_s, raw_s = [], []
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        child_scaled, child_raw = map(float, child.stdout.split())
        scaled_s.append(child_scaled)
        raw_s.append(child_raw)
    # the first child may compile bytecode
    return statistics.median(scaled_s[1:]), statistics.median(raw_s[1:])


def _latency_metrics(rounds: list[list[float]]) -> tuple[float, float, float]:
    """p50 and p90 in ms over the matrices' median times, and matrices per second."""
    per_matrix = [statistics.median(times) for times in zip(*rounds)]
    return (
        statistics.median(per_matrix) * 1000,
        statistics.quantiles(per_matrix, n=10)[8] * 1000,
        len(per_matrix) / sum(per_matrix),
    )


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup_seconds()
    session.prime()
    rounds: list[list[float]] = []
    raw_rounds: list[list[float]] = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        times, raw_times = session.round()
        rounds.append(times)
        raw_rounds.append(raw_times)
    wall = perf_counter() - start
    p50, p90, rate = _latency_metrics(rounds)
    raw_p50, raw_p90, raw_rate = _latency_metrics(raw_rounds)
    metrics = {
        "analyze_ms_p50": p50,
        "analyze_ms_p90": p90,
        "matrices_per_s": rate,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_ratio": (session.attempted - session.failed) / session.attempted,
    }
    counts = {
        "matrices": len(session.instances),
        "timed_rounds": len(rounds),
        "timed_samples": len(rounds) * len(session.instances),
        "setup_samples": SETUP_REPEATS,
        "loop_wall_s": wall,
        "raw_analyze_ms_p50": raw_p50,
        "raw_analyze_ms_p90": raw_p90,
        "raw_matrices_per_s": raw_rate,
        "raw_setup_s": setup_raw,
    }
    return metrics, counts


def _max_bits(value) -> int:
    """Peak numerator or denominator bit length among the fractions in a report."""
    if isinstance(value, dict):
        return max(map(_max_bits, value.values()), default=0)
    if isinstance(value, list):
        return max(map(_max_bits, value), default=0)
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except ValueError:
            return 0
        return max(f.numerator.bit_length(), f.denominator.bit_length())
    return 0


def per_layer(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    session.prime()
    tracer = Tracer()
    untraced = 0.0
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        untraced += sum(session.round()[0])
        with tracer.patched():
            session.round(tracer)
        rounds += 1
    tracer.write(spans_path)
    totals = layer_totals(tracer.spans, tracer.scale)
    traced_matrices = rounds * len(session.instances)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def ms(seconds_total: float) -> float:
        return seconds_total * 1000 / traced_matrices

    def per_matrix(count: int) -> float:
        return count / traced_matrices

    reports = session.reports()
    passed = max(len(reports), 1)
    variation = layer("core.variation")
    mat_mul = layer("core.mat_mul")
    type_of = layer("core.type_of")
    root = layer(ROOT_SPAN)
    metrics = {
        "core.variation.ms": ms(variation.seconds),
        "core.variation.calls": per_matrix(variation.calls),
        "core.variation.abs_diffs": per_matrix(variation.work),
        "core.mat_mul.ms": ms(mat_mul.seconds),
        "core.mat_mul.calls": per_matrix(mat_mul.calls),
        "core.mat_mul.mult_adds": per_matrix(mat_mul.work),
        "core.mat_mul.mult_adds_per_s": mat_mul.work / mat_mul.seconds if mat_mul.calls else 0.0,
        "core.type_of.ms": ms(type_of.seconds),
        "core.type_of.calls": per_matrix(type_of.calls),
        "core.rational.max_bits": max((_max_bits(r) for inst, r in reports if inst.rational), default=0),
        "analysis.stationary_vector.ms": ms(layer("analysis.stationary_vector").seconds),
        "analysis.analyze.self_ms": ms(layer("analysis.analyze").self_seconds),
        "analysis.powers_scanned": sum(len(r.get("variation_per_power", [])) for _, r in reports) / passed,
        "analysis.bounds.ms": ms(
            layer("analysis.limit_projection").seconds + layer("analysis.decay_bound").seconds
        ),
        "cli.parse_matrix.ms": ms(layer("cli.parse_matrix").seconds),
        "cli.analysis_report.self_ms": ms(layer("cli.analysis_report").self_seconds),
        "cli.json_dumps.ms": ms(layer("cli.json_dumps").seconds),
        "cli.bytes_in": sum(os.path.getsize(p) for p in session.paths) / len(session.paths),
        "cli.bytes_out": sum(len(out) for out in session.checked.values() if out) / passed,
        "trace.overhead_ratio": root.seconds / untraced,
        "trace.uncovered_ms": ms(root.self_seconds),
    }
    counts = {
        "matrices": len(session.instances),
        "traced_rounds": rounds,
        "untraced_rounds": rounds,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path),
    }
    return metrics, counts


def measure(
    workload: str, seed: int, seconds: float, trace: bool, sizes: Optional[Sequence[int]] = None
) -> tuple[dict, dict]:
    """Run one workload; return the result object and the run metadata.

    ``sizes`` overrides the workload's size range (the benchmark's tests
    run tiny ones).
    """
    instances = generate(workload, seed, sizes)
    session = Session(instances, WORK / workload, load_digests(workload, seed))
    try:
        if trace:
            spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
            values, counts = per_layer(session, seconds, spans_path)
            units = PER_LAYER_UNITS
        else:
            values, counts = end_to_end(session, seconds)
            units = END_TO_END_UNITS
    finally:
        session.close()
    for reason in session.reasons[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds, **counts}
    return result, {**meta, **machine_info()}


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "stovar_commit": _git_commit(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stovar" / "cli.py").is_file():
        print(f"error: no stovar sources at {SRC / 'stovar'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # matrix paths, and so the rational reports, are relative to the root
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
