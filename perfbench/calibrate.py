"""Host-speed calibration: a fixed kernel that scales times to a reference host.

The benchmark's hosts are shared VMs whose speed drifts by a quarter or
more over minutes (a fixed loop's 20-s medians swing that much), so raw
host times of the same code differ run to run by more than any useful
bound.  Every timed span is therefore paired with samples of
:func:`kernel`, a fixed mix of interpreter, small-array and large-array
NumPy work that exercises no ``repro`` code, taken just before and after
it.  A time ``t`` measured while the kernel took ``k`` is reported as
``t * REFERENCE_S / k``: the time the span would take on a host where the
kernel takes :data:`REFERENCE_S`.  A change to the program moves the
scaled time exactly as it moves the raw time; a change of host speed
moves both the span and the kernel and cancels.

Print the kernel's median time on this host (to compare with
:data:`REFERENCE_S`)::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Kernel time of the reference host (a 2-vCPU 2.0 GHz Xeon VM, median).
REFERENCE_S = 0.0055


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    acc = 0.0
    x = np.linspace(0.0, 1.0, 64)
    m = np.eye(4)
    for i in range(60):
        y = np.sin(x * i) + np.cos(x)
        m = m @ np.eye(4)
        acc += float(y.sum()) + float(m[0, 0])
        table = {j: j * i for j in range(30)}
        acc += sum(v % 7 for v in table.values())
    s = 0
    for i in range(12000):
        s += i * i % 7
    a = np.arange(20000, dtype=float)
    for i in range(4):
        a = np.sort(np.cumsum(np.sqrt(a * i + 1.0))[::-1]) % 1000.0
    return acc + s + float(a[0])


def sample() -> float:
    """Host seconds of one :func:`kernel` run.

    The garbage collector is paused for the run, so the kernel's time does
    not depend on how many objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_sample(n: int = 3) -> float:
    """Median host seconds of ``n`` kernel runs."""
    return statistics.median(sample() for _ in range(n))


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


def windowed(samples: list[float], index: int) -> float:
    """Kernel time around span ``index`` of a loop sampled before every span and after the last.

    ``samples[i]`` is taken just before span ``i`` and ``samples[i + 1]``
    just after it; the median of the two samples on each side smooths the
    kernel's own jitter while following the host's drift.
    """
    return statistics.median(samples[max(0, index - 1) : index + 3])


if __name__ == "__main__":
    print(f"kernel {median_sample(31) * 1000.0:.3f} ms (reference {REFERENCE_S * 1000.0:.3f} ms)")
