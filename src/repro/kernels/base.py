"""The kernel-backend contract: what a compute backend must implement.

``repro.kernels`` puts a pluggable backend behind the profile-ranked
hot paths of the synthesis pipeline (the Chrome traces from
:mod:`repro.obs` rank them):

1. the **Weiszfeld iterate loop** of :mod:`repro.core.placement` — by
   far the hottest span (millions of ``sqrt`` calls on the scaling
   workloads), exposed both per-problem and as a *lockstep batch* over
   many independent placement problems;
2. the **batched Lemma 3.2 / Theorem 3.2 predicates** of
   :mod:`repro.core.pruning`;
3. the **Δ matrix** fill of :mod:`repro.core.matrices` (norms with an
   exactly-vectorizable distance).

The bit-identity contract
-------------------------

Every backend must return **bit-identical** floats for every kernel:
same IEEE-754 doubles, same verdicts, same iteration counts.  The
reference semantics are the pure-python loops in
:mod:`repro.kernels.pyref` — an executable spec.  The rules that make
cross-backend bit-identity achievable (and which every backend must
follow) are:

- additions are accumulated **sequentially, left to right**, in anchor
  / subset-member order — never with numpy's pairwise summation over
  an axis (pairwise regroups additions for length >= 8 and changes the
  rounding);
- ``sqrt`` is IEEE-correctly-rounded, so ``math.sqrt`` and
  ``np.sqrt`` agree bitwise and either may be used;
- ``math.hypot`` is **not** reproducible by ``np.hypot`` (different
  algorithms, observed ULP differences), so Euclidean distances that
  the reference computes via ``math.hypot`` must never be vectorized —
  backends return ``None`` from :meth:`KernelBackend.delta_matrix` for
  the Euclidean norm and the caller falls back to the scalar loop;
- comparisons (tolerance checks, convergence tests) use the exact same
  expressions on the exact same values, so the branch outcomes match.

The differential test pack (``tests/test_kernels_differential.py``)
enforces the contract end to end: full synthesis under every backend
must serialize to byte-identical result JSON.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["WeiszfeldTask", "WeiszfeldPump", "KernelBackend"]

#: one Weiszfeld iterate-loop task:
#: ``(axs, ays, aws, cx, cy, tol, smoothing)`` — anchor coordinate /
#: weight lists (already filtered to w > 0), the start point, the
#: convergence tolerance and the singularity smoothing (both already
#: scaled to the problem's spread).  ``max_iter`` is passed separately.
WeiszfeldTask = Tuple[
    Sequence[float], Sequence[float], Sequence[float], float, float, float, float
]


class KernelBackend:
    """Base class for compute backends; methods default to the
    reference (pure-python) implementations via delegation.

    Subclasses override what they can accelerate and inherit the rest;
    every override must preserve the bit-identity contract documented
    in the module docstring.
    """

    #: registry / selection name ("python", "numpy").
    name: str = "base"

    # ------------------------------------------------------------------
    # Weiszfeld placement
    # ------------------------------------------------------------------
    def weiszfeld_run(
        self,
        axs: Sequence[float],
        ays: Sequence[float],
        aws: Sequence[float],
        cx: float,
        cy: float,
        tol: float,
        smoothing: float,
        max_iter: int,
    ) -> Tuple[float, float, int]:
        """Run the modified-Weiszfeld iterate loop to convergence.

        Returns ``(x, y, iterations)``.  Semantics (the executable spec
        is :func:`repro.kernels.pyref.weiszfeld_run`): per iteration,
        anchors coinciding with the iterate (``d2 == 0.0``) are
        skipped; the rest contribute ``w / sqrt(d2 + smoothing)``
        pulls accumulated sequentially; ``den == 0`` stops without a
        step; a step smaller than ``tol`` in Chebyshev distance stops
        after applying the step.
        """
        raise NotImplementedError

    def weiszfeld_run_batch(
        self, tasks: Sequence[WeiszfeldTask], max_iter: int
    ) -> List[Tuple[float, float, int]]:
        """Solve many independent Weiszfeld problems.

        The default just loops :meth:`weiszfeld_run`; vectorized
        backends run the problems in *lockstep* (one fused iteration
        across all still-active problems) — each problem applies the
        exact same per-iteration map as its solo run, so the results
        are bit-identical to the sequential loop.
        """
        return [
            self.weiszfeld_run(axs, ays, aws, cx, cy, tol, smoothing, max_iter)
            for (axs, ays, aws, cx, cy, tol, smoothing) in tasks
        ]

    def weiszfeld_pump(self, max_iter: int) -> "WeiszfeldPump":
        """A stateful many-problem Weiszfeld driver.

        Unlike :meth:`weiszfeld_run_batch`, a pump accepts *new* tasks
        while earlier ones are still iterating — callers with a
        sequential structure per problem (e.g. the alternating descent
        of :mod:`repro.core.placement`, where each finished half-step
        spawns the next one) keep a vectorized backend's batch wide
        instead of letting each synchronization point drain into a
        scalar straggler tail.  Every task's trajectory is the solo
        :meth:`weiszfeld_run` trajectory regardless of what else is in
        flight, so results are bit-identical to serial execution.
        """
        return WeiszfeldPump(self, max_iter)

    # ------------------------------------------------------------------
    # pruning predicates (Lemma 3.2 / Theorem 3.2)
    # ------------------------------------------------------------------
    def lemma_3_2_batch(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        subsets: np.ndarray,
        tol: float,
    ) -> np.ndarray:
        """Lemma 3.2 verdicts for an ``(m, k)`` batch of index subsets.

        For each subset and each pivot ``p``: sequential column sums
        ``g = Σ_i Γ[s_i, s_p] − Γ[s_p, s_p]`` and ``d = Σ_i Δ[s_i,
        s_p]``; the subset is pruned when any pivot has ``g <= d +
        tol·max(1, |g|, |d|)``.  Returns a boolean ``(m,)`` vector.
        """
        raise NotImplementedError

    def theorem_3_2_batch(
        self,
        bandwidths: np.ndarray,
        max_link_bandwidth: float,
        tol: float,
    ) -> np.ndarray:
        """Theorem 3.2 verdicts for an ``(m, k)`` bandwidth batch.

        ``total = Σ b_i`` (sequential), ``threshold = max_link + min
        b_i``; pruned when ``total >= threshold + tol·scale`` or
        ``total == threshold`` (keep-favouring tolerance).  Returns a
        boolean ``(m,)`` vector.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Δ matrix
    # ------------------------------------------------------------------
    def delta_matrix(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        tx: np.ndarray,
        ty: np.ndarray,
        norm_name: str,
    ) -> Optional[np.ndarray]:
        """Vectorized Δ fill, or ``None`` when no exactly-reproducible
        fast path exists for ``norm_name`` (the caller then runs the
        scalar pair loop).  Euclidean must return ``None`` everywhere:
        the reference uses ``math.hypot``, which no vectorized
        equivalent reproduces bitwise.
        """
        return None


class WeiszfeldPump:
    """Reference pump: solves each task serially at the next pump.

    The contract (shared by all backends): :meth:`inject` enqueues a
    task under a caller-chosen key; :meth:`pump` makes progress and
    returns ``(key, x, y, iterations)`` for at least one finished task
    (all of them, for this serial reference) unless nothing is in
    flight; :attr:`in_flight` reports pending work.  Result order
    carries no information — callers must key off the returned keys.
    :attr:`stragglers` counts the tasks a vectorised pump started in its
    batch but finished on a scalar loop (always 0 for this reference).
    """

    def __init__(self, backend: "KernelBackend", max_iter: int) -> None:
        self._backend = backend
        self._max_iter = max_iter
        self._queue: List[Tuple[Hashable, WeiszfeldTask]] = []
        self.stragglers = 0

    @property
    def in_flight(self) -> bool:
        return bool(self._queue)

    def inject(self, key: Hashable, task: WeiszfeldTask) -> None:
        self._queue.append((key, task))

    def pump(self) -> List[Tuple[Any, float, float, int]]:
        out = []
        for key, (axs, ays, aws, cx, cy, tol, smoothing) in self._queue:
            x, y, it = self._backend.weiszfeld_run(
                axs, ays, aws, cx, cy, tol, smoothing, self._max_iter
            )
            out.append((key, x, y, it))
        self._queue.clear()
        return out
