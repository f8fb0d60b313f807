"""Run hygiene: thread pins, machine fingerprint, memory, source location.

Imports nothing numeric at module level, because ``bench.__main__`` reads
:data:`THREAD_PINS` before numpy may be imported.
"""

from __future__ import annotations

import os
import platform
import resource
import sys

__all__ = ["REPO_ROOT", "THREAD_PINS", "fingerprint", "import_repro",
           "output_directory", "peak_rss_mb"]

#: One BLAS / OpenMP thread, no artifact cache, serial corpus backend:
#: the generator thread and the batcher thread are then the only two
#: runnable threads, which is what a 2-core sandbox can schedule.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_CACHE": "0",
    "REPRO_WORKERS": "1",
}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_repro() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a checkout without ``src/repro`` is an error and not a
    fallback to whatever ``import repro`` would find.
    """
    source = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"bench: no src/repro under {REPO_ROOT}; the "
                         f"benchmark runs the program from this checkout")
    sys.path.insert(0, source)
    import repro
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"bench: imported repro from {repro.__file__}, "
                         f"not from {source}")


def output_directory() -> str:
    """Where traces and run records go: inside the checkout, git-ignored."""
    path = os.path.join(REPO_ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "platform": sys.platform,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else peak / 1024.0
