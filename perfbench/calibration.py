"""Machine-speed calibration for wall-clock timings.

On a shared host the same code runs at different speeds from one minute to
the next.  On the 2-vCPU Intel Xeon (2.0 GHz) virtual machine this
benchmark was built on, the median time of a fixed pure-Python loop moved
by up to 1.5x between 10-second windows, and raw per-matrix times of one
seed moved by 40% between runs.  So every timing is taken between two runs
of a fixed calibration kernel, and is reported scaled to the speed at which
that kernel takes ``REFERENCE_SECONDS``:

    scaled = raw * REFERENCE_SECONDS / mean(kernel before, kernel after)

The kernel does the kind of work stovar does (``Fraction`` and float matrix
products in pure Python), so a slower or faster machine state moves both by
about the same factor.  A change to stovar does not move the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's time on an uncontended core of the machine above.
REFERENCE_SECONDS = 0.0028

_FRACTIONS = [[Fraction(i + 1, j + 2) for j in range(8)] for i in range(8)]
_FLOATS = [[(i * 7 + j) / 13.0 for j in range(24)] for i in range(24)]


def _product(a: list[list], n: int) -> list[list]:
    return [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    _product(_FRACTIONS, 8)
    _product(_FLOATS, 24)
    return perf_counter() - start


def scaled(raw: float, kernel_before: float, kernel_after: float) -> float:
    """``raw`` seconds at the speed where the kernel takes REFERENCE_SECONDS."""
    return raw * REFERENCE_SECONDS * 2 / (kernel_before + kernel_after)
