"""Shared plumbing for the bench of record: paths, work dirs, stats,
provenance, and the result record every workload returns.

The benchmark lives beside the program it measures: ``ROOT`` is the
checkout holding ``BENCHMARK.json``, ``perfbench/`` and ``src/repro``.
Nothing here imports the program; :func:`require_program` puts
``src`` on ``sys.path`` and fails loudly when the program is missing.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for campaign out dirs, memo dirs and server logs;
#: removed when a run ends (listed in the repository's .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program under test."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for subprocesses that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def make_work_dir(tag: str = "run") -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds once no run is using it
    except OSError:
        pass


def settle() -> None:
    """Untimed housekeeping between measured rounds."""
    gc.collect()


# -- machine speed ---------------------------------------------------------------
#: iterations of the calibration probe's fixed pure-Python loop
PROBE_LOOPS = 100_000
#: the probe's time on a quiet 2-vCPU host under CPython 3.11 (the
#: reference machine); normalized seconds are seconds on that machine
PROBE_NOMINAL_S = 0.0065


def probe() -> float:
    """Seconds this thread takes for a fixed amount of Python work.

    Shared hosts change speed by up to 1.8x within a minute (a busy
    sibling hyperthread slows CPU time and wall time alike), so each
    measured interval is bracketed by probes and rescaled to the
    reference machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class SpeedClock:
    """Times calls and rescales them to the reference machine."""

    def __init__(self):
        #: every probe taken, in seconds
        self.probes: List[float] = []

    def factor(self, *samples: float) -> float:
        """Reference seconds per measured second, given probe samples."""
        self.probes.extend(samples)
        return PROBE_NOMINAL_S / (sum(samples) / len(samples))

    def timed(self, fn, *args, **kwargs):
        """``(result, wall seconds, normalized seconds)`` of one call."""
        before = probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, wall * self.factor(before, probe())

    @property
    def probe_ms(self) -> float:
        return median(self.probes) * 1000.0

    def child_setup(self, code: str, samples: int):
        """Seconds that ``code`` reports for itself, each sample in a
        fresh interpreter running the program from source; returns
        ``(wall seconds, normalized seconds)`` lists."""
        wall, normalized = [], []
        for _ in range(samples):
            before = probe()
            out = subprocess.run([sys.executable, "-c", code],
                                 capture_output=True, text=True,
                                 env=program_env(), timeout=120, check=True)
            seconds = float(out.stdout.strip().splitlines()[-1])
            wall.append(seconds)
            normalized.append(seconds * self.factor(before, probe()))
        return wall, normalized


# -- statistics ---------------------------------------------------------------
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def tail_beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return count - int(max(1, -(-count * q // 100))) if count else 0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_self_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_pid_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(items) -> str:
    """Short fingerprint of a workload's generated inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- provenance ---------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, quick: bool) -> dict:
    """Where a result came from.  Without numpy every refinement check
    falls back to the scalar engine, so results stamped ``numpy:
    absent`` must never be compared with results that had numpy."""
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain") if in_repo else None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": commit or "unknown",
        "dirty": (bool(status) if status is not None else "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count() or 1,
        "seed": seed,
        "run": "quick" if quick else "full",
    }


# -- the result of one run ----------------------------------------------------
@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to its value; units come from
    BENCHMARK.json.  ``named`` carries the metrics a user reads for this
    workload, under their usual names (value, unit, sample count), and
    ``mismatches`` lists every failed correctness check."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, dict] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    inputs_digest: str = ""
    notes: Dict[str, object] = field(default_factory=dict)

    def name(self, key: str, value: float, unit: str, samples: int) -> None:
        self.named[key] = {"value": value, "unit": unit, "samples": samples}
