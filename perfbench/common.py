"""Shared pieces: the run outcome, statistics, memory and the environment block."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: scratch space of a run (instance files, caches, spools, layer tables).
OUT_DIR = Path(__file__).resolve().parent / "out"
#: costs must match their pinned values to this relative tolerance.
COST_REL_TOL = 1e-9


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)``: name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: the traced run's span table and raw counters (written to a file).
    layer_table: List[Dict[str, Any]] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def cost_matches(got: Optional[float], expected: float) -> bool:
    return got is not None and math.isclose(got, expected, rel_tol=COST_REL_TOL)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for descendant, in MB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_revision() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code under
    test where no git metadata exists (the checkout may be a plain tree)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The block that makes one run's figures comparable to another's."""
    import numpy
    import scipy

    from repro.kernels import current_kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels": current_kernels().name,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }
