"""Output check for ``stovar analyze --json`` reports.

A report passes when the command exited with the instance's known code,
printed a ``stovar/1`` JSON object, found the contraction power known by
construction, and (on convergence) reported a stationary vector ``E`` that
is a fixed point with entry sum one.  ``E`` is verified here with plain
``Fraction`` arithmetic on the generated matrix, never with stovar's own
code: exactly for rational instances, and within the CLI's default float
tolerance for float instances.  Rational reports for the digest seed must
also match the committed sha256 digests byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import Instance

SCHEMA = "stovar/1"
FLOAT_TOLERANCE = 1e-9  # the CLI's default --tol
DIGEST_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def _close(x: Fraction, y: Fraction) -> bool:
    """The CLI's float comparison, max(1, |x|, |y|)-relative, done exactly."""
    return abs(x - y) <= Fraction(FLOAT_TOLERANCE) * max(1, abs(x), abs(y))


def _value(token: str, rational: bool) -> Fraction:
    return Fraction(token) if rational else Fraction(float(token))


def check_report(inst: Instance, exit_code: int, stdout: bytes) -> Optional[str]:
    """Why the report is wrong for ``inst``, or None when it passes."""
    if exit_code != inst.exit_code:
        return f"exit code {exit_code}, expected {inst.exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return f"schema is not {SCHEMA}"
    if report.get("contraction_power") != inst.power:
        return f"contraction power {report.get('contraction_power')}, expected {inst.power}"
    stationary = report.get("stationary")
    if inst.power is None:
        return None if stationary is None else "stationary vector on an inconclusive scan"
    if not isinstance(stationary, list) or len(stationary) != inst.n:
        return "stationary vector missing or of the wrong length"
    try:
        e = [_value(token, inst.rational) for token in stationary]
    except (TypeError, ValueError, ZeroDivisionError):
        return "stationary vector entry is not a number"
    image = [sum(m_ij * e_j for m_ij, e_j in zip(row, e)) for row in inst.entries]
    total = sum(e)
    if inst.rational:
        fixed = image == e and total == 1
    else:
        fixed = all(_close(u, v) for u, v in zip(image, e)) and _close(total, Fraction(1))
    return None if fixed else "stationary vector is not a fixed point with entry sum one"


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests(workload: str, seed: int) -> Optional[dict[str, str]]:
    """Committed report digests by instance name, or None when none apply.

    Digests exist for rational workloads at ``DIGEST_SEED`` only.
    """
    if seed != DIGEST_SEED:
        return None
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload)
