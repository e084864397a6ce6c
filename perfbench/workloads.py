"""Seeded matrix workloads for the ``stovar analyze`` benchmark.

Every workload is a fixed set of instances: one matrix for every integer
size in the workload's range (plus the extras named below), so the mix of
sizes is the same for every seed and only the entries and the order move.
Each instance carries the exact entries as written to its file and the
answer that is known by construction: the exit code and the contraction
power.  Nothing here imports stovar; the output check relies on it being
independent of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

EXIT_OK = 0
EXIT_INCONCLUSIVE = 3

F = Fraction

# The signed 3x3 worked example: type 1, variation 6/5 at the first power
# and 18/25 at the second, stationary vector (-2, 1/3, 8/3).
WORKED_EXAMPLE = (
    (F(0, 5), F(2, 5), F(-4, 5)),
    (F(-1, 5), F(-1, 5), F(0, 5)),
    (F(6, 5), F(4, 5), F(9, 5)),
)
WORKED_POWER = 2


@dataclass(frozen=True)
class Instance:
    """One matrix file and the answer the CLI must give for it."""

    name: str
    n: int
    kind: str
    rational: bool
    entries: tuple[tuple[Fraction, ...], ...]  # exact values of the file's tokens
    exit_code: int
    power: Optional[int]  # contraction power; None when the full scan is inconclusive

    def text(self) -> str:
        """CSV file contents: p/q tokens for rational, shortest repr for float."""
        return "".join(",".join(self._token(v) for v in row) + "\n" for row in self.entries)

    def _token(self, value: Fraction) -> str:
        if self.rational:
            return f"{value.numerator}/{value.denominator}"
        return repr(float(value))


def _exact(rows: Sequence[Sequence[float]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(F(v) for v in row) for row in rows)


def _column_normalized(weights: list[list[int]], rational: bool):
    n = len(weights)
    sums = [sum(weights[i][j] for i in range(n)) for j in range(n)]
    if rational:
        return tuple(tuple(F(weights[i][j], sums[j]) for j in range(n)) for i in range(n))
    return _exact([[weights[i][j] / sums[j] for j in range(n)] for i in range(n)])


def dense_markov(n: int, rational: bool, rng: random.Random) -> Instance:
    """Dense positive Markov matrix: integer weights 1..9, columns normalized.

    Every pair of columns overlaps by at least 1/9, so the variation is at
    most 8/9 and the contraction power is 1.
    """
    weights = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    return Instance(
        name=f"dense-n{n:02d}",
        n=n,
        kind="dense",
        rational=rational,
        entries=_column_normalized(weights, rational),
        exit_code=EXIT_OK,
        power=1,
    )


def lazy_path(n: int) -> list[list[Fraction]]:
    """Lazy walk on a path: stay 1/2, step left or right 1/4, reflecting ends."""
    rows = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = F(1, 2)
        for i in (j - 1, j + 1):
            if 0 <= i < n:
                rows[i][j] += F(1, 4)
            else:
                rows[j][j] += F(1, 4)
    return rows


def lazy_path_power(n: int) -> int:
    """Contraction power of the lazy path chain on n >= 2 states.

    Column j of M^p is supported exactly on the states within distance p of
    j, and two non-negative columns with sum one are at l1 distance below 2
    exactly when their supports meet.  The two end columns meet first when
    2p >= n - 1, that is at p = ceil((n - 1) / 2) = n // 2.
    """
    return n // 2


def lazy_instance(n: int) -> Instance:
    return Instance(
        name=f"lazy-n{n:02d}",
        n=n,
        kind="lazy",
        rational=True,
        entries=tuple(tuple(row) for row in lazy_path(n)),
        exit_code=EXIT_OK,
        power=lazy_path_power(n),
    )


def signed_lazy_instance(n: int, rng: random.Random) -> Instance:
    """Lazy path chain L plus x 1^T, where x sums to zero with entries in {0, +-1/4}.

    Every column of M = L + x 1^T is the column of L shifted by x, and
    M^k = L^k + (sum of L^i x for i < k) 1^T shifts every column of L^k by
    one common vector, so var(M^k) = var(L^k) for every k: the contraction
    power is that of L.  Rows with x_i = -1/4 turn the zeros of L into
    negative entries.
    """
    k = max(1, n // 4)
    picked = rng.sample(range(n), 2 * k)
    x = [F(0)] * n
    for i in picked[:k]:
        x[i] = F(-1, 4)
    for i in picked[k:]:
        x[i] = F(1, 4)
    base = lazy_path(n)
    entries = tuple(tuple(base[i][j] + x[i] for j in range(n)) for i in range(n))
    return Instance(
        name=f"signed-n{n:02d}",
        n=n,
        kind="signed",
        rational=True,
        entries=entries,
        exit_code=EXIT_OK,
        power=lazy_path_power(n),
    )


def worked_instance() -> Instance:
    return Instance(
        name="worked-n03",
        n=3,
        kind="worked",
        rational=True,
        entries=WORKED_EXAMPLE,
        exit_code=EXIT_OK,
        power=WORKED_POWER,
    )


def _random_markov_block(rows: list[int], cols: list[int], n: int, rng: random.Random):
    """Weights for columns ``cols`` supported on ``rows`` only."""
    weights = [[0] * n for _ in range(n)]
    for j in cols:
        for i in rows:
            weights[i][j] = rng.randint(1, 9)
    return weights


def no_contraction_instance(n: int, rng: random.Random) -> Instance:
    """Float matrix whose every power has variation exactly one.

    The kind is fixed by n mod 3, so the mix is the same for every seed:
    a permutation; a reducible matrix with two diagonal Markov blocks; or
    a period-2 chain that alternates between two classes of states.  In
    each, some pair of columns of every power has disjoint supports.
    """
    kind = ("permutation", "block-diagonal", "periodic")[n % 3]
    split = rng.randint(2, n - 2)
    states = list(range(n))
    rng.shuffle(states)
    first, second = states[:split], states[split:]
    if kind == "permutation":
        weights = [[0] * n for _ in range(n)]
        for j, i in enumerate(states):
            weights[i][j] = 1
    elif kind == "block-diagonal":
        a = _random_markov_block(first, first, n, rng)
        b = _random_markov_block(second, second, n, rng)
        weights = [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]
    else:
        a = _random_markov_block(second, first, n, rng)
        b = _random_markov_block(first, second, n, rng)
        weights = [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]
    return Instance(
        name=f"{kind}-n{n:02d}",
        n=n,
        kind=kind,
        rational=False,
        entries=_column_normalized(weights, rational=False),
        exit_code=EXIT_INCONCLUSIVE,
        power=None,
    )


def _dense_float(sizes, rng):
    return [dense_markov(n, False, rng) for n in sizes]


def _dense_rational(sizes, rng):
    return [dense_markov(n, True, rng) for n in sizes]


def _slow_mixing(sizes, rng):
    out = [lazy_instance(n) for n in sizes]
    out += [signed_lazy_instance(n, rng) for n in sizes if n % 2 == 0]
    out.append(worked_instance())
    return out


def _no_contraction(sizes, rng):
    return [no_contraction_instance(n, rng) for n in sizes]


# name -> (generator, default sizes); BENCHMARK.json and README.md say why
WORKLOADS = {
    "dense-float": (_dense_float, range(20, 81)),
    "dense-rational": (_dense_rational, range(8, 31)),
    "slow-mixing": (_slow_mixing, range(4, 17)),
    "no-contraction": (_no_contraction, range(8, 25)),
}


def generate(workload: str, seed: int, sizes: Optional[Sequence[int]] = None) -> list[Instance]:
    """The instances of ``workload`` for ``seed``, in the order they are run.

    ``sizes`` overrides the workload's size range (tests use tiny ones).
    """
    make, default_sizes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    instances = make(list(default_sizes if sizes is None else sizes), rng)
    rng.shuffle(instances)
    return instances
