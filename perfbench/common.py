"""Shared pieces of the benchmark: spans, registry readers, checks, env.

Spans are the benchmark's own timers around calls into the program's
public functions, kept in memory as lists of durations.  Phase and
counter readers pull numbers out of a ``repro.observe`` registry
summary (enabled only in traced repetitions).
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Repository root of the checkout the benchmark runs from.
ROOT = Path(__file__).resolve().parent.parent


class Spans(dict):
    """Span name -> list of durations (s) of the benchmark's own timers."""

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. between two hook calls)."""
        self.setdefault(name, []).append(end - start)

    def total(self, name: str) -> float:
        return float(sum(self.get(name, ())))

    def mean(self, name: str) -> float:
        values = self.get(name, ())
        return float(sum(values) / len(values)) if values else 0.0


def phase_total(summary: dict | None, name: str) -> float:
    """Summed time of every registry phase path ending in ``name``.

    Phases recorded on rank threads or rank processes add up across
    ranks, so a rank-side total is *rank-summed*, not wall time.
    """
    if summary is None:
        return 0.0
    return float(sum(p["total_s"] for p in summary["phases"] if p["name"] == name))


def phase_count(summary: dict | None, name: str) -> int:
    if summary is None:
        return 0
    return int(sum(p["count"] for p in summary["phases"] if p["name"] == name))


def counter(summary: dict | None, name: str) -> float:
    if summary is None:
        return 0.0
    return float(summary["counters"].get(name, 0))


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured."""
    return float(num) / float(den) if den else 0.0


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return float(values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, all CPUs (s).

    Read from the ``steal`` column of ``/proc/stat``.  A repetition that
    overlaps a steal episode runs slower for reasons outside the program;
    the run record keeps the steal of every repetition next to its wall
    time so such a repetition can be told from a regression.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited on."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Checks:
    """Output checks of one repetition; failures feed ``error_rate``."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


@dataclass
class Rep:
    """One timed repetition of a workload."""

    wall_s: float
    #: Final-state digest; equal seeds must give equal digests.
    digest: str
    checks: Checks
    #: Headline numbers of this workload (throughputs, latencies).
    headline: dict
    #: Per-layer numbers (filled only in traced repetitions).
    layers: dict = field(default_factory=dict)
    #: Exact counts worth recording whatever the mode (vacancies, events).
    counts: dict = field(default_factory=dict)
    #: Host CPU steal during the repetition, summed over CPUs (s).
    steal_s: float = 0.0


def _source_digest() -> str:
    """SHA-256 over the program sources; identifies a checkout without git."""
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment(backend: str | None, workers: int | None) -> dict:
    """Where and how the numbers were measured."""
    from repro import kernels

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": numba_version,
        "kernels": kernels.selected(),
        "backend": backend,
        "workers": workers,
    }
