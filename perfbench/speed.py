"""Machine-speed reference: report times at a fixed CPU speed.

On a shared virtual machine the speed of a core swings with the load of
its neighbours.  On the 2-core Intel Xeon VM (2.1 GHz) this benchmark was
written on, the same ``normal_form`` call took 55 ms in one 5-second
window and 85 ms in the next, so 20-second runs disagreed by about 20%.

While a ``SpeedSampler`` is active, a SIGALRM handler runs a small fixed
kernel of pure-Python ``Fraction`` arithmetic every ``PERIOD_S`` seconds.
The kernel uses nothing of legcurve, so no library change moves it.  A
call's time, less the time spent in the handler, is multiplied by
``REFERENCE_S`` over the median kernel time sampled around the call,
raised to the call's exponent (1 for most calls; see ``workloads.py``): the
result is seconds at the speed where the kernel takes ``REFERENCE_S``,
about the median speed of that VM.  Raw wall times are kept in the result
file.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.15
LEAD = 4
REFERENCE_S = 0.004

clock = time.perf_counter


def _series(rng: random.Random, bits: int) -> dict[int, Fraction]:
    return {k: Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits // 4) | 1)
            for k in range(12)}


def _germ(rng: random.Random) -> dict[tuple[int, int, int], Fraction]:
    return {(i, j, k): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for i in range(2) for j in range(3) for k in range(2)}


def _poly(rng: random.Random) -> dict[tuple[int, ...], int]:
    return {tuple(rng.randint(0, 2) for _ in range(24)): rng.randint(1, 9) for _ in range(15)}


_RNG = random.Random(12345)
_SERIES = (_series(_RNG, 256), _series(_RNG, 256))
_BIG = (_series(_RNG, 1536), _series(_RNG, 1536))
_GERMS = (_germ(_RNG), _germ(_RNG))
_POLYS = (_poly(_RNG), _poly(_RNG))


def _kernel() -> None:
    """Products in the shape of the library's kinds of hot loop, written
    apart from it: dense series with 256-bit and with 1536-bit rational
    coefficients (coefficient growth drives the cost of the larger types),
    sparse (x, y, p) polynomials with small rational coefficients, and
    sparse polynomials in 24 variables with integer coefficients."""
    out: dict = {}
    for k1, v1 in _SERIES[0].items():
        for k2, v2 in _SERIES[1].items():
            k = k1 + k2
            out[k] = out.get(k, 0) + v1 * v2
    out = {}
    for k1, v1 in _BIG[0].items():
        for k2, v2 in _BIG[1].items():
            if k1 + k2 < 6:
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    out = {}
    for (i1, j1, l1), v1 in _GERMS[0].items():
        for (i2, j2, l2), v2 in _GERMS[1].items():
            key = (i1 + i2, j1 + j2, l1 + l2)
            out[key] = out.get(key, 0) + v1 * v2
    out = {}
    for e1, v1 in _POLYS[0].items():
        for e2, v2 in _POLYS[1].items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + v1 * v2


class SpeedSampler:
    """Samples the kernel time from a timer signal while in a ``with`` block."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = clock()
        _kernel()
        end = clock()
        self.samples.append(end - start)
        self.spent += clock() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def timed(self, fn):
        """Run ``fn``; return its result, its seconds less the handler's, and
        ``REFERENCE_S`` over the median kernel time around the call."""
        count, spent = self.mark()
        start = clock()
        result = fn()
        elapsed = clock() - start
        end_count, end_spent = self.mark()
        if end_count == count:
            self._sample(None, None)
            end_count += 1
        # samples from shortly before the call steady the estimate for calls
        # of a few periods; the speed changes over seconds, not milliseconds
        window = self.samples[max(count - LEAD, 0):end_count]
        busy = elapsed - (end_spent - spent)
        return result, busy, REFERENCE_S / statistics.median(window)
