"""Helpers shared by the three workloads: statistics, set-up probes,
scratch directories, resource accounting and the result line."""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (it is always started from there).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for one run's caches and spans; removed at exit.
SCRATCH_ROOT = ROOT / ".perfbench"
#: Full-detail reference results, reused across runs under the result
#: store's source-fingerprinted cache keys.
REFERENCE_CACHE = SCRATCH_ROOT / "reference"

#: Machines every workload compares: metric prefix -> machine token.
MACHINES = {"baseline": "baseline", "cpr": "cpr", "msp16": "msp:16"}
PROGRAMS = ("gzip", "mcf")

#: Samples a timed quantity needs beyond its tail percentile.
TAIL_BEYOND = 10


def require_source() -> None:
    """Exit non-zero (printing no result) outside a full checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULT_INJECT", None)
    env.update(extra)
    return env


def warm_bytecode() -> None:
    """Compile the simulator's bytecode once, untimed, so set-up probes
    measure imports rather than compilation."""
    import compileall
    compileall.compile_dir(str(SRC / "repro"), quiet=2, workers=1)


_CREATED: List[Path] = []


def scratch_dir(tag: str) -> Path:
    """A fresh directory under the checkout's scratch root, removed by
    :func:`cleanup` (cache directories live in these)."""
    path = SCRATCH_ROOT / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    _CREATED.append(path)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cleanup() -> None:
    """Remove every scratch directory this process created."""
    while _CREATED:
        remove_tree(_CREATED.pop())


# --------------------------------------------------------------------- #
# Statistics.
# --------------------------------------------------------------------- #

def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above
    it: ``(value, percentile, sample count)``.

    The sample at 1-based rank ``n - beyond`` has exactly ``beyond``
    samples after it. The tail never reads below the median: with
    ``2 * beyond`` samples or fewer no percentile above p50 has enough
    samples beyond it, and the median is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - beyond
    if 2 * rank <= n:
        return median(xs), 50.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def failed_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def is_failure_status(status: int) -> bool:
    """Any non-2xx HTTP status is a failed operation (429 included)."""
    return not 200 <= status < 300


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# --------------------------------------------------------------------- #
# Pacing: spread each kind of sample across the whole run.
# --------------------------------------------------------------------- #

class Pacer:
    """Decides when the next set-up probe is due, so ``count`` probes
    land evenly over ``seconds`` instead of in one burst."""

    def __init__(self, seconds: float, count: int) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds
        self.count = count
        self.taken = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def done(self) -> bool:
        return self.elapsed() >= self.seconds and self.taken >= self.count

    def probe_due(self) -> bool:
        if self.taken >= self.count:
            return False
        due_at = (self.taken + 0.5) * self.seconds / self.count
        return self.elapsed() >= due_at or self.elapsed() >= self.seconds


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports the
    workload ready to time (``perfbench/setup_probe.py``)."""
    script = Path(__file__).with_name("setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(script), workload, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe for {workload} failed: "
                           f"{line!r} {err.strip()[-400:]}")
    return elapsed


# --------------------------------------------------------------------- #
# Result line.
# --------------------------------------------------------------------- #

def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]],
         notes: Optional[Dict[str, object]] = None) -> None:
    """Print every metric by name and unit on stderr, then the one
    JSON result line on stdout (always the last line)."""
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"perfbench: {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"perfbench: failed_ratio = {failed_ratio(attempted, failed):.6g}"
          f" ({failed} of {attempted} operations)", file=sys.stderr)
    for key, value in (notes or {}).items():
        print(f"perfbench: {key}: {value}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def check_metrics(metrics: Dict[str, Tuple[float, str]],
                  names: List[str]) -> None:
    """The result must carry exactly the declared metric names."""
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"undeclared {extra}")
