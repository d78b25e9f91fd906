"""Operation times rescaled to a reference speed of the host.

The host running the benchmark shares its cores: the same Python work takes
up to 1.7 times as long from one minute to the next, in CPU time as much as
in wall time.  So a run times a fixed calibration kernel before its first
operation and after every CHUNK_S seconds of operations.  Each operation's
time is multiplied by the kernel's reference time over the mean kernel time
of the WINDOW calibrations on either side of it, about two seconds of the
run.  A reported millisecond is therefore a millisecond at the speed where
the kernel takes its reference time; the raw wall time is kept alongside.

Each workload uses the kernel whose work is most like its own, since the
host slows some kinds of work more than others: exact Fraction and small
integer arithmetic for classpoly and gznorm, 300-digit mpmath arithmetic for
crosscheck.  Measured over repeated identical passes in one process, the
matching kernel cut the pass-to-pass variation from 3.6 % to 1.1 %
(classpoly, Fraction kernel) and from 5.3 % to 2.2 % (crosscheck, mpmath
kernel), as coefficients of variation.  The kernel's own time is bimodal
while a long operation sees a mix of both speeds, so the mean over many
short calibrations is used; medians and minima jump between the modes.

The kernels never call cmforge, so a change to cmforge cannot move the unit.
Changing a kernel or its reference time changes the unit of every time
reported with it.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import mpmath

#: Operation seconds between two calibrations.
CHUNK_S = 0.1
#: Calibrations on either side of an operation that set its factor.
WINDOW = 10


def _fraction_kernel():
    acc = Fraction(0)
    table = {}
    for k in range(1, 400):
        acc += Fraction(k, 2 * k + 1)
        table[k % 37] = table.get(k % 37, 0) + pow(k, 65537, 1000003)
    return acc, table


_CTX = mpmath.ctx_mp.MPContext()
_CTX.dps = 310
_TAU = _CTX.mpc(_CTX.mpf("0.3"), _CTX.mpf("1.7"))


def _mpmath_kernel():
    w = _CTX.expjpi(_TAU / 12)
    total = w
    for k in range(1, 8):
        total += w ** ((6 * k - 1) ** 2)
    return total


#: Kernel name -> (kernel, reference seconds that define the unit).
KERNELS = {
    "fractions": (_fraction_kernel, 0.0025),
    "mpmath": (_mpmath_kernel, 0.004),
}


def calibrate(kernel) -> float:
    """One kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Sums raw operation seconds and calibrates the host along the way."""

    def __init__(self, kernel_name: str):
        self.kernel_name = kernel_name
        self._kernel, self.reference_s = KERNELS[kernel_name]
        self.calibrations = [calibrate(self._kernel)]
        self.raw_s = 0.0
        self._times: list[tuple[float, int]] = []
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self._times.append((seconds, len(self.calibrations) - 1))
        self.raw_s += seconds
        self._since += seconds
        if self._since >= CHUNK_S:
            self.calibrations.append(calibrate(self._kernel))
            self._since = 0.0

    def scaled_times(self) -> list[float]:
        """Each operation's seconds at the reference speed, in order of add()."""
        cals = self.calibrations
        return [
            seconds * self.reference_s
            / statistics.fmean(cals[max(0, i - WINDOW):i + WINDOW + 2])
            for seconds, i in self._times
        ]

    @property
    def scaled_s(self) -> float:
        return math.fsum(self.scaled_times())

    @property
    def factor(self) -> float:
        """Whole-run multiplier, for times not split by operation."""
        return self.reference_s / statistics.fmean(self.calibrations)
