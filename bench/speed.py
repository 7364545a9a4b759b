"""Reference-speed timing for the end-to-end metrics.

On a shared two-vCPU x86-64 virtual machine (2.0 GHz), the speed drifts with
the neighbours' load: the same pass of the same code took 1.0 to 2.5 times
as long from one minute to the next, in spells lasting tens of seconds, so
raw wall times of identical runs spread by 20-45% between quartiles.  A run
cannot wait that out.

`ReferenceClock` therefore times a fixed kernel every 0.2 s while a
pass runs (from a timer signal) and scales each stretch of the pass between
two samples by ``REF_S`` over the kernel's time at its ends.  The result is
in reference seconds: the time the pass would take on a machine that runs
the kernel in ``REF_S``.  The kernel shares no code with the package, so a
change to the package moves the scaled time as it moves the raw time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

# About the kernel's time on an idle 2 GHz x86-64 vCPU (numpy 2.4), so
# reference seconds are close to seconds on such a core.
REF_S = 4.0e-3
SAMPLE_INTERVAL_S = 0.2


@dataclass(frozen=True)
class _Point:
    m: int
    k: int
    nu: float

    def __post_init__(self):
        if not 0 < self.k < self.m:
            raise ValueError(f"k must lie in (0, m), got {self.k}")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"nu must be positive, got {self.nu}")


def kernel() -> None:
    """A blend of the access patterns the workloads spend their time in.

    Random swaps in a small int8 block (a simulator pass), a float loop in
    pure Python (the exact oracle), numpy calls on 0-d arrays (scalar bound
    and entropy evaluations), scattered writes to a fresh 1 MiB array (a
    new simulator chunk), and validated frozen dataclasses with small math
    (the optimizer's candidate checks), the last taking half the time.
    Each part alone tracked some workloads' passes and missed others.  With
    the blend, the workloads' scaled pass times spread by 2-7% between
    quartiles over ten seeds, while raw times spread by 12-40%.
    """
    rng = np.random.default_rng(0)
    block = np.zeros((200, 500), dtype=np.int8)
    block[:, :20] = 1
    rows = np.arange(200)
    for i in range(18):
        j = rng.integers(i, 500, size=200)
        held = block[rows, i].copy()
        block[rows, i] = block[rows, j]
        block[rows, j] = held

    term, terms = 1.0, []
    for j in range(1, 2200):
        term *= (j + 0.5) / (j + 1.0)
        terms.append(term)
    math.fsum(terms)

    for _ in range(27):
        x = np.asarray(0.1, dtype=float)
        np.any((x < 0.0) | (x > 1.0)) or np.any(~np.isfinite(x))  # range checks
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(x * np.log2(x)) - (1.0 - x) * np.log2(1.0 - x)
        float(np.where((x > 0.0) & (x < 1.0), h, 0.0))

    fresh = np.zeros(1 << 20, dtype=np.int8)
    fresh[rng.integers(0, fresh.size, size=30_000)] += 1

    for i in range(800):
        point = replace(_Point(3100 + i, 1550, 0.1 + i * 1e-5), k=1551)
        math.exp(-point.k * point.nu * point.nu / (point.m + 1)) + math.log2(point.nu)


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class ReferenceClock:
    """Times the code run inside ``with`` in seconds and reference seconds.

    ``raw_s`` excludes the time spent sampling the kernel.
    """

    def __enter__(self):
        self._marks = []
        self._samples = [kernel_s()]
        self._marks.append(time.perf_counter())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, *_):
        self._marks.append(time.perf_counter())
        self._samples.append(kernel_s())
        self._marks.append(time.perf_counter())
        # One-shot timer, re-armed here, so a slow sample cannot nest.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._marks.append(time.perf_counter())
        self._samples.append(kernel_s())
        stretches = [
            self._marks[i + 1] - self._marks[i] for i in range(0, len(self._marks), 2)
        ]
        self.raw_s = sum(stretches)
        self.ref_s = sum(
            stretch * REF_S / (0.5 * (self._samples[i] + self._samples[i + 1]))
            for i, stretch in enumerate(stretches)
        )
        self.kernel_median_s = statistics.median(self._samples)
        return False
