"""Speed normalisation: a stdlib-only calibration kernel interleaved
with every timed loop, and a fixed cost model for the file system.

The sandbox's speed drifts by tens of percent within minutes with no
code change, so a raw time compares two moments of the machine, not two
versions of the program.  An operation that took ``t`` seconds, ``w`` of
them inside ``storage.fsio``'s write and publish calls, is reported as::

    (t - w) * sqrt(REF_CPU_MS * REF_MEM_MS / (cpu_p50 * mem_p50))
        + device_model(writes, bytes, publishes)

**Compute part.**  The kernel runs between operations, and each
operation is scaled by the medians of the ``NEAREST`` kernel runs
closest in time to it.  Nearest, not the whole phase's: under a busy
neighbour the box flips between a fast and a slow state every few
seconds, and a phase-wide median then fits neither the operations of
the fast seconds nor those of the slow ones (on ten such runs it left a
tenth of spread on medians of a thousand lookups; the nearest runs left
a thirtieth).  The kernel has two parts because the product's hot paths
are a blend of both: ``calib_cpu`` is an integer loop that lives in
registers and the bytecode cache; ``calib_mem`` allocates, hashes, sorts
and serialises the way the storage and journal layers do.  Either alone
under- or over-corrects.

**Device part.**  The file system's speed moves on its own — between
two otherwise calm runs the same journal appends took 0.27 and 0.76 ms
in ``fsio`` (writeback after earlier bulk writes) — and no live
calibration write tracked it within a tenth.  The time actually spent
in ``fsio`` is therefore taken out and replaced by what the same calls
cost on a reference device: a fixed charge per write call, per byte and
per publish.  That part is exact, repeats, and still moves when the
program writes more or less.  It is a sandbox's page cache either way
(no fsync), so nothing real is lost.

The kernel imports nothing from ``repro``: a product change can never
move the yardstick.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from bisect import bisect_left
from statistics import median
from time import perf_counter

#: Reference medians (milliseconds) of the two kernel parts, taken on
#: the box the baseline in ``perflab/results/`` was measured on.  They
#: only fix the scale of the reported numbers; any two runs normalised
#: with the same constants are comparable.
REF_CPU_MS = 2.40
REF_MEM_MS = 2.80

#: The reference device: seconds per ``write_bytes`` call, per byte
#: written, and per ``publish_file``/``publish_dir``, as this box's
#: page cache does them in a calm minute.
DEVICE_WRITE_S = 100e-6
DEVICE_BYTE_S = 0.6e-9
DEVICE_PUBLISH_S = 60e-6



def device_write_seconds(size: int) -> float:
    """One ``write_bytes`` call of ``size`` bytes on the reference device."""
    return DEVICE_WRITE_S + size * DEVICE_BYTE_S


#: Least time between two calibration samples inside a timed loop.
INTERVAL_S = 0.12

#: How many calibration samples, the closest in time, scale an operation.
NEAREST = 7


def calib_cpu() -> float:
    """Milliseconds for a fixed integer-arithmetic loop."""
    started = perf_counter()
    acc = 7
    for i in range(17000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        if acc & 1:
            acc ^= i
    return (perf_counter() - started) * 1000.0


def calib_mem() -> float:
    """Milliseconds to build, filter, sort, group and serialise a list
    of dicts (allocation- and hashing-bound, like the write path)."""
    started = perf_counter()
    rows = [
        {"k": (i * 7919) % 97, "v": i * 0.5, "s": "m%04d" % (i % 53)}
        for i in range(2700)
    ]
    kept = [row for row in rows if row["k"] % 3]
    kept.sort(key=lambda row: (row["s"], row["k"]))
    groups: dict = {}
    for row in kept:
        groups[row["s"]] = groups.get(row["s"], 0.0) + row["v"]
    packed = b"".join(struct.pack("<qd", row["k"], row["v"]) for row in kept)
    zlib.crc32(packed)
    json.dumps(kept[:300])
    return (perf_counter() - started) * 1000.0


class Calibrator:
    """Collects calibration samples and scales operations by the ones
    taken closest to them."""

    def __init__(self) -> None:
        #: (time taken at, cpu ms, mem ms, phase), in time order
        self.samples: list[tuple[float, float, float, str]] = []
        self._times: list[float] = []

    def sample(self, phase: str) -> None:
        """Run the kernel once, unconditionally."""
        at = perf_counter()
        self.samples.append((at, calib_cpu(), calib_mem(), phase))
        self._times.append(at)

    def tick(self, phase: str) -> None:
        """Run the kernel if the last sample is older than the interval;
        called between operations, never inside a timed one."""
        if not self._times or perf_counter() - self._times[-1] >= INTERVAL_S:
            self.sample(phase)

    def factor_at(self, when: float) -> float:
        """Multiply the compute part of a raw time around ``when`` by
        this."""
        at = bisect_left(self._times, when)
        near = sorted(
            self.samples[max(0, at - NEAREST) : at + NEAREST],
            key=lambda sample: abs(sample[0] - when),
        )[:NEAREST]
        cpu = median(sample[1] for sample in near)
        mem = median(sample[2] for sample in near)
        return math.sqrt(REF_CPU_MS * REF_MEM_MS / (cpu * mem))

    def normalise(self, sample: tuple) -> float:
        """A driver sample ``(seconds, seconds inside fsio, the reference
        device's seconds for those calls, start time)`` as the reference
        machine would have taken it."""
        seconds, device_seconds, device_model, started = sample
        factor = self.factor_at(started + seconds / 2)
        return (seconds - device_seconds) * factor + device_model

    def medians(self, phase: str) -> tuple[float, float]:
        """(cpu_p50, mem_p50) over a whole phase, in milliseconds — a
        diagnostic of the machine, not used for scaling."""
        samples = [sample for sample in self.samples if sample[3] == phase]
        return (
            median(sample[1] for sample in samples),
            median(sample[2] for sample in samples),
        )
