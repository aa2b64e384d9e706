"""Checkout discovery, program import, and the host record.

The benchmark runs from the root of a source checkout and measures the
``repro`` package under ``src/`` of that checkout — never an installed
copy. :func:`load_program` refuses to continue when the source is
missing, so a directory holding only the benchmark fails fast instead of
printing a result.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Kernel-selection variables the benchmark clears: it measures the default
#: serial kernel, whatever the calling shell has exported.
KERNEL_ENV = ("REPRO_KERNEL", "REPRO_WORKERS")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - started)\n"
)


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def load_program():
    """Import ``repro`` from this checkout's ``src/`` and return the module."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no program source under {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise MissingProgram(
            f"repro resolved to {repro.__file__}, not the checkout's {package}"
        )
    return repro


def pin_to_one_cpu() -> int | None:
    """Run this process on one CPU; returns it (None where unsupported).

    Under the interpreter lock the client and the front-door worker never
    run Python at once, so one CPU costs no throughput. It keeps each
    request's thread hand-offs on one core, and makes the host-speed
    probes measure the very core the work runs on, instead of whichever
    of the host's unevenly loaded cores the scheduler picked.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def clear_kernel_overrides() -> dict[str, str]:
    """Drop kernel-selection variables; returns the ones that were set."""
    return {name: os.environ.pop(name) for name in KERNEL_ENV if name in os.environ}


def time_import() -> float:
    """Seconds a fresh interpreter spends in ``import repro`` (measured inside it)."""
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(completed.stdout.strip().splitlines()[-1])


#: Iterations of the host record's calibration loop.
CALIBRATION_ITERATIONS = 1_000_000
#: Timings of the calibration loop; the host record keeps their median.
CALIBRATION_REPEATS = 3
#: Iterations of one host-speed probe taken during a timed phase (~1 ms).
PROBE_ITERATIONS = 10_000
#: Seconds one probe takes at the reference host speed — about the median
#: probe on the host that defined the benchmark (2 vCPUs, CPython 3.11.7).
#: Host-normalised times are expressed at this speed.
REFERENCE_PROBE_S = 0.001


def _loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def probe() -> float:
    """Seconds one fixed pure-Python probe takes right now.

    Its wall time, less the CPU time the process's other threads used while
    it ran. Under the interpreter lock (and on one pinned CPU) another thread
    of the process runs only while the probe waits, so the probe counts
    what the host takes from it — a slower core, another process, time the
    hypervisor steals — but never the program's own threads, such as the
    front-door worker. Host normalisation therefore cannot hide a slowdown
    that comes from the program's background work.
    """
    wall, process, thread = time.perf_counter(), time.process_time(), time.thread_time()
    _loop(PROBE_ITERATIONS)
    others = (time.process_time() - process) - (time.thread_time() - thread)
    return time.perf_counter() - wall - others


def calibration_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop (host speed figure)."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _loop(CALIBRATION_ITERATIONS)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def host_record() -> dict:
    """CPU count, interpreter, platform and calibration figure of this host."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "calibration_ms": calibration_ms(),
    }


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size (Linux).

    Called as a timed phase starts, so ``peak_rss_mb`` covers that phase
    and not the interpreter start, the imports or the set-ups before it.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")
