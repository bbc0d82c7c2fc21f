"""Host-speed sampling, so that runs made at different moments compare.

On a shared host the speed of a core drifts by tens of percent from second to
second and over minutes, and a workload's CPU time drifts with it: neither
wall nor CPU time alone compares two runs. While the workload runs, a
sampler thread times a fixed piece of work that uses no masktune code, every
``PERIOD_S``, by its own thread CPU time. The benchmark pins its process to
one CPU, so the samples see the same core as the workload.

The workload's time at reference speed is its time multiplied by the mean of
``REFERENCE_S / sample``. That mean is the host's average speed over the
interval relative to the reference, sampled uniformly in time; a workload that
needs T0 at reference speed takes T0 divided by that average speed, so the
product gives T0 back. ``REFERENCE_S`` only sets the scale: runs compare
because both use the same constant.

The sampled work is a short chain of tiny numpy calls with Python between
them. Measured against the workloads on a 2-vCPU Xeon VM, its slow-down under
contention followed theirs more closely than a pure-Python loop, a sum over a
1 MB array, or the same chain timed after an untimed warm-up pass did (see
bench/README.md).
"""

from __future__ import annotations

import functools
import gc
import os
import resource
import threading
import time

PERIOD_S = 0.01
CHAIN = 30
# about the fastest sample seen on an uncontended core of the machine the
# benchmark was defined on (2-vCPU Intel Xeon VM, numpy 2.4, OpenBLAS 1 thread)
REFERENCE_S = 1.0e-4


@functools.cache
def _operands():
    import numpy as np  # not at import time: the caller sets BLAS threads first
    rng = np.random.default_rng(0)
    # below numpy's 500-element threshold for releasing the GIL, so a sample
    # holds the GIL from start to end
    return np.tanh, rng.standard_normal((8, 16)) / 4, rng.standard_normal((16, 16)) / 4


def _switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_nvcsw + usage.ru_nivcsw


def sample() -> float | None:
    """Thread CPU seconds of one fixed chain of tiny numpy calls.

    None if the thread was switched out meanwhile: the main thread runs in
    numpy with the GIL released on the same CPU, and a sample it interrupts
    pays for refilling the caches it evicted, not for the host's speed. The
    garbage collector is off during a sample, so that a collection of the
    workload's objects, which the sample's allocations could trigger, is not
    timed; it runs after the sample instead.
    """
    tanh, x, w = _operands()
    seen = {}
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        switches = _switches()
        t0 = time.thread_time()
        for i in range(CHAIN):
            x = tanh(x @ w + 0.1)
            seen[i % 5] = float(x[0, 0])
        elapsed = time.thread_time() - t0
        switched = _switches() != switches
    finally:
        if gc_enabled:
            gc.enable()
    return None if switched else elapsed


def pin_to_one_cpu() -> None:
    """Pin this process, and the processes it starts, to its lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Samples the host's speed from a thread while the `with` block runs.

    After the block, `samples` holds at least one sample and `cpu_s` the
    sampler thread's own CPU time, which the caller subtracts from the
    process's CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(PERIOD_S):
            s = sample()
            if s is not None:
                self.samples.append(s)
        self.cpu_s = time.thread_time() - t0

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        while not self.samples:  # the block was shorter than one period
            s = sample()
            if s is not None:
                self.samples.append(s)

    def speed(self) -> float:
        """Mean host speed over the block, relative to the reference."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
