"""Reference kernels that measure how fast the host runs right now.

The benchmark's host shares its cores: over seconds to minutes the same
Python code runs up to 1.7x slower and back, as other work lands on the
sibling hyperthread.  Each timed job is therefore bracketed by this fixed
pure-Python kernel, which touches nothing of pararp, and its time is scaled to
what the kernel takes on an idle core:

    scaled = measured * REFERENCE_S / kernel time next to the measurement

A change to pararp moves the measured time and not the kernel, so it moves
the scaled time in full; the host's drift moves both and cancels.

Jobs that also do numpy and BLAS work slow down differently: the host's
other tenants share the last-level cache and memory bus, which the Python
kernel's few kilobytes never feel.  For those workloads ``Reference`` blends
in a numpy kernel that streams a 16 MB working set (see workloads.py for the
weight of each workload).  This module imports only ``time`` at load, so a
fresh interpreter can run the Python kernel before importing pararp without
loading anything pararp imports.
"""

import time

# The kernel's time on an idle core of the machine the benchmark was defined
# on (Intel Xeon, 2 vCPUs, Python 3.11).  Scaled times read as milliseconds on
# that machine when idle; elsewhere they differ by a constant factor.
REFERENCE_S = 1.2e-3
# The numpy kernel's time on the same idle core.
NUMPY_REFERENCE_S = 2.2e-3


def reference_seconds() -> float:
    """Wall time of one run of the kernel: dict, tuple and complex work like
    the symbolic algebra's inner loops."""
    start = time.perf_counter()
    acc: dict = {}
    z = 1 + 1j
    for i in range(4000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + z * (i & 7)
    return time.perf_counter() - start


class Reference:
    """Host-speed reference for one workload, in the Python kernel's units.

    With ``numpy_weight`` w > 0 each reading is the geometric blend
    ``py^(1-w) * (REFERENCE_S * np / NUMPY_REFERENCE_S)^w`` of the Python
    kernel's time ``py`` and the numpy kernel's time ``np``; on an idle host
    both terms equal REFERENCE_S, so ``scaled = measured * REFERENCE_S /
    seconds()`` holds for every weight.
    """

    def __init__(self, numpy_weight: float = 0.0):
        self.weight = numpy_weight
        if numpy_weight:
            import numpy as np

            rng = np.random.default_rng(0)
            # 256 dense 64x64 complex matrices, 16 MB: the size of the
            # monomial matrices pararp builds at dimension 64.
            self._mats = [rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
                          for _ in range(256)]
            self._x = self._mats[0].copy()
            self._vdot = np.vdot

    def numpy_seconds(self) -> float:
        """Wall time of one pass of the numpy kernel over its matrices."""
        start = time.perf_counter()
        acc = 0j
        for m in self._mats:
            acc += self._vdot(m, self._x)
        return time.perf_counter() - start

    def seconds(self) -> float:
        py = reference_seconds()
        if not self.weight:
            return py
        blend = REFERENCE_S * self.numpy_seconds() / NUMPY_REFERENCE_S
        return py ** (1 - self.weight) * blend ** self.weight
