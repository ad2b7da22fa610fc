"""Vectorized numpy backend — bit-identical to the python reference.

Two techniques, both chosen for exact reproducibility (see
:mod:`repro.kernels.base` for the contract):

- **sequential column loops** instead of axis reductions: ``Σ_i x_i``
  is accumulated one member column at a time (``acc = acc + X[:, i]``)
  so every element sees the same left-to-right rounding as the scalar
  loop.  numpy's own ``sum(axis=...)`` switches to pairwise summation
  at length 8 and is *not* bit-compatible with the reference.
- **lockstep Weiszfeld batching**: a single placement problem is too
  small for numpy (array dispatch costs more than the ~5-anchor scalar
  loop), so the win comes from fusing one iteration across *many
  independent problems* — the per-problem update is the exact same
  map as the solo loop, evaluated row-wise, so iterates (and iteration
  counts) match bitwise.  Problems converge at different speeds; rows
  drop out of the batch as they finish, and once only a few stragglers
  remain they are finished by the scalar reference loop (continuing
  from the same state — again identical).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .base import KernelBackend, WeiszfeldPump, WeiszfeldTask
from .pyref import weiszfeld_run as _scalar_run

__all__ = ["NumpyKernels"]

#: below this many still-active rows the lockstep iteration stops
#: paying for itself (one fused numpy iteration costs roughly eight
#: scalar problem-iterations) and the stragglers finish on the scalar
#: reference loop.
_BATCH_MIN_ACTIVE = 8

#: lockstep iterations between convergence sweeps.  Rows are mutually
#: independent, so a row that converges mid-window can keep iterating
#: harmlessly until the sweep — its final position is restored from the
#: window history — and the steady-state loop body carries no
#: convergence test, no compaction, and no index arrays at all.  On the
#: profiled workloads a finish event lands only every ~100 iterations,
#: so a long window amortizes the sweep without meaningful overshoot.
_WINDOW = 48


def _sequential_sum_rows(x: np.ndarray) -> np.ndarray:
    """Row sums of an (m, k) array with left-to-right accumulation."""
    acc = x[:, 0].copy()
    for i in range(1, x.shape[1]):
        acc += x[:, i]
    return acc


def _fast_rowsum(x: np.ndarray) -> np.ndarray:
    # ``np.add.reduce`` is what ``np.sum`` delegates to — identical
    # rounding — minus the fromnumeric wrapper, which profiling shows
    # costs more than the reduction itself at these widths.
    return np.add.reduce(x, axis=1)


def _exact_rowsum(k: int):
    """The fastest row-sum that is *bit-identical* to sequential
    accumulation for width ``k``: numpy's reduction only switches to
    pairwise summation at 8 elements, so below that ``np.add.reduce``
    rounds exactly like the scalar left-to-right loop (verified by the
    differential property pack across random inputs)."""
    if k < 8:
        return _fast_rowsum
    return _sequential_sum_rows


def _sequential_sum_last(x: np.ndarray) -> np.ndarray:
    """Sum of a (..., k) array over its last axis, left-to-right."""
    acc = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        acc += x[..., i]
    return acc


def _scalar_tail(axs, ays, aws, cx, cy, tol, smoothing, max_iter, _sqrt=math.sqrt):
    """:func:`repro.kernels.pyref.weiszfeld_run` with the interpreter
    overhead shaved (pre-zipped anchors, local ``sqrt`` binding) — the
    float expressions are untouched, so every iterate is the reference
    double.  Used for the straggler rows the lockstep batch hands off."""
    anchors = list(zip(axs, ays, aws))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        num_x = num_y = den = 0.0
        for ax, ay, aw in anchors:
            d2 = (ax - cx) ** 2 + (ay - cy) ** 2
            if d2 == 0.0:
                continue
            coef = aw / _sqrt(d2 + smoothing)
            num_x += coef * ax
            num_y += coef * ay
            den += coef
        if den == 0.0:
            break
        nx = num_x / den
        ny = num_y / den
        moved = max(abs(nx - cx), abs(ny - cy))
        cx, cy = nx, ny
        if moved < tol:
            break
    return cx, cy, iterations


class NumpyKernels(KernelBackend):
    """Array-programming backend; every kernel preserves reference order."""

    name = "numpy"

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
        # Anchor counts are tiny; per-problem numpy dispatch is a
        # slowdown, so single problems run the scalar reference.
        return _scalar_run(axs, ays, aws, cx, cy, tol, smoothing, max_iter)

    def weiszfeld_run_batch(
        self, tasks: Sequence[WeiszfeldTask], max_iter: int
    ) -> List[Tuple[float, float, int]]:
        m = len(tasks)
        if m < _BATCH_MIN_ACTIVE:
            return super().weiszfeld_run_batch(tasks, max_iter)
        pump = _NumpyWeiszfeldPump(self, max_iter)
        for i, task in enumerate(tasks):
            pump.inject(i, task)
        out: List[Tuple[float, float, int]] = [None] * m  # type: ignore[list-item]
        while pump.in_flight:
            for key, x, y, it in pump.pump():
                out[key] = (x, y, it)
        return out

    def weiszfeld_pump(self, max_iter: int) -> WeiszfeldPump:
        return _NumpyWeiszfeldPump(self, max_iter)

    def lemma_3_2_batch(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        subsets: np.ndarray,
        tol: float,
    ) -> np.ndarray:
        s = subsets
        # blocks[r, i, p] = M[s[r, i], s[r, p]]: one gather per matrix,
        # then sequential accumulation over the member axis (i) so the
        # column sums round exactly like the reference loop.
        gamma_blocks = gamma[s[:, :, None], s[:, None, :]]
        delta_blocks = delta[s[:, :, None], s[:, None, :]]
        k = s.shape[1]
        if k < 8:
            # below numpy's pairwise-summation threshold the axis
            # reduction rounds exactly like the sequential loop
            gsum = np.add.reduce(gamma_blocks, axis=1)
            dsum = np.add.reduce(delta_blocks, axis=1)
        else:
            gsum = gamma_blocks[:, 0, :].copy()
            dsum = delta_blocks[:, 0, :].copy()
            for i in range(1, k):
                gsum += gamma_blocks[:, i, :]
                dsum += delta_blocks[:, i, :]
        gsum -= np.diagonal(gamma_blocks, axis1=1, axis2=2)
        scale = np.maximum(1.0, np.maximum(np.abs(gsum), np.abs(dsum)))
        return np.any(gsum <= dsum + tol * scale, axis=1)

    def theorem_3_2_batch(
        self,
        bandwidths: np.ndarray,
        max_link_bandwidth: float,
        tol: float,
    ) -> np.ndarray:
        b = bandwidths
        total = _exact_rowsum(b.shape[1])(b)
        # min is order-insensitive in IEEE-754 (no rounding), so the
        # axis reduction is exact.
        threshold = max_link_bandwidth + b.min(axis=1)
        scale = np.maximum(1.0, np.maximum(np.abs(total), np.abs(threshold)))
        return (total >= threshold + tol * scale) | (total == threshold)

    def delta_matrix(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        tx: np.ndarray,
        ty: np.ndarray,
        norm_name: str,
    ):
        # Euclidean stays scalar: the reference distance is math.hypot,
        # which np.hypot does not reproduce bitwise.
        if norm_name == "manhattan":
            du = np.abs(sx[:, None] - sx[None, :]) + np.abs(sy[:, None] - sy[None, :])
            dv = np.abs(tx[:, None] - tx[None, :]) + np.abs(ty[:, None] - ty[None, :])
        elif norm_name == "chebyshev":
            du = np.maximum(
                np.abs(sx[:, None] - sx[None, :]), np.abs(sy[:, None] - sy[None, :])
            )
            dv = np.maximum(
                np.abs(tx[:, None] - tx[None, :]), np.abs(ty[:, None] - ty[None, :])
            )
        else:
            return None
        out = du + dv
        np.fill_diagonal(out, 0.0)
        return out


class _NumpyWeiszfeldPump(WeiszfeldPump):
    """Windowed lockstep Weiszfeld over a *mutable* working set.

    Rows are mutually independent, so tasks injected at different times
    iterate side by side; each :meth:`pump` call runs `_WINDOW`-sized
    blocks of fused iterations over everything in flight and returns
    the tasks that finished.  Per-row state: padded anchors (zero
    weight, exact ``+0.0`` contributions), current iterate, tolerance,
    smoothing, and the remaining per-task iteration budget.

    Bit-identity: every row applies the reference per-iteration map to
    its own lane only — window size, co-batched rows, and injection
    order are execution details that cannot change any task's
    trajectory.  A row that converges mid-window keeps iterating
    harmlessly until the sweep, which finds its *first* finish event
    and restores the position recorded at that exact step; rows below
    the lockstep break-even width are finished by the scalar loop,
    continuing from the same state.
    """

    def __init__(self, backend: KernelBackend, max_iter: int) -> None:
        super().__init__(backend, max_iter)
        self._n = 0
        self._kmax = 0
        self._keys: List = []

    @property
    def in_flight(self) -> bool:
        return bool(self._queue) or self._n > 0

    def _absorb(self) -> None:
        """Fold queued tasks into the working arrays."""
        if not self._queue:
            return
        tasks = self._queue
        self._queue = []
        p = len(tasks)
        kmax = max(max(len(t[0]) for _, t in tasks), self._kmax)
        # plane 0/1: anchor x/y; plane 2: constant 1.0, so one fused
        # ``coef · A3`` reduction yields num_x, num_y *and* den in a
        # single pass (``coef * 1.0`` is bitwise ``coef``, and padding
        # columns carry an exact-0.0 coef, so den rounds identically to
        # the separate sum).
        A3 = np.zeros((p, 3, kmax))
        A3[:, 2, :] = 1.0
        W = np.zeros((p, kmax))
        pos = np.empty((p, 2))
        tl = np.empty(p)
        sm = np.empty((p, 1))
        for r, (_, (txs, tys, tws, cx, cy, tol, smoothing)) in enumerate(tasks):
            k = len(txs)
            A3[r, 0, :k] = txs
            A3[r, 1, :k] = tys
            W[r, :k] = tws
            pos[r, 0] = cx
            pos[r, 1] = cy
            tl[r] = tol
            sm[r, 0] = smoothing
        rem = np.full(p, self._max_iter, dtype=np.int64)
        used = np.zeros(p, dtype=np.int64)
        if self._n:
            oldA, oldW = self._A3, self._W
            if kmax > self._kmax:
                # widen existing rows with zero-weight padding (exact
                # +0.0 accumulation terms — unobservable)
                wideA = np.zeros((self._n, 3, kmax))
                wideA[:, 2, :] = 1.0
                wideA[:, :, : self._kmax] = oldA
                wideW = np.zeros((self._n, kmax))
                wideW[:, : self._kmax] = oldW
                oldA, oldW = wideA, wideW
            self._A3 = np.concatenate([oldA, A3])
            self._W = np.concatenate([oldW, W])
            self._pos = np.concatenate([self._pos, pos])
            self._tl = np.concatenate([self._tl, tl])
            self._sm = np.concatenate([self._sm, sm])
            self._rem = np.concatenate([self._rem, rem])
            self._used = np.concatenate([self._used, used])
        else:
            self._A3, self._W, self._pos = A3, W, pos
            self._tl, self._sm = tl, sm
            self._rem, self._used = rem, used
        self._keys.extend(key for key, _ in tasks)
        self._kmax = kmax
        self._n += p

    def _drain_scalar(self) -> List[Tuple[object, float, float, int]]:
        """Finish every remaining row on the (tuned) scalar reference
        loop, continuing from its current iterate and budget."""
        self.stragglers += self._n
        out = []
        for r in range(self._n):
            x, y, extra = _scalar_tail(
                self._A3[r, 0].tolist(), self._A3[r, 1].tolist(),
                self._W[r].tolist(), float(self._pos[r, 0]),
                float(self._pos[r, 1]), float(self._tl[r]),
                float(self._sm[r, 0]), int(self._rem[r]),
            )
            out.append((self._keys[r], x, y, int(self._used[r]) + extra))
        self._n = 0
        self._kmax = 0
        self._keys = []
        return out

    def pump(self) -> List[Tuple[object, float, float, int]]:
        self._absorb()
        results: List[Tuple[object, float, float, int]] = []
        with np.errstate(divide="ignore", invalid="ignore"):
            while self._n:
                if self._n < _BATCH_MIN_ACTIVE:
                    results.extend(self._drain_scalar())
                    break
                results.extend(self._window())
                if results:
                    break
        return results

    def _window(self) -> List[Tuple[object, float, float, int]]:
        """One block of fused lockstep iterations + one finish sweep."""
        n, kmax = self._n, self._kmax
        A3, W, tl, sm = self._A3, self._W, self._tl, self._sm
        pos = self._pos
        span = min(_WINDOW, int(self._rem.min()))
        base = pos
        A2 = A3[:, :2, :]
        # Window history and scratch, preallocated: every ufunc below
        # writes into these (``out=``), so the hot loop allocates
        # nothing.  ``traj[j]``/``sums[j]``/``d2h[j]`` are each step's
        # own rows — no aliasing across steps.  The hot loop only
        # *advances* the iterates; step sizes, den == 0 events, and
        # coincident-anchor hits are all recovered from the recorded
        # history after the loop.  ``traj`` carries a third channel
        # (den/den — exactly 1.0 for live rows) so the whole ``nsum``
        # row divides in one contiguous op.
        traj = np.empty((span, n, 3))
        sums = np.empty((span, n, 3))
        d2h = np.empty((span, n, kmax))
        diff = np.empty((n, 2, kmax))
        coef = np.empty((n, kmax))
        prod = np.empty((n, 3, kmax))
        fast = kmax < 8
        for masked in (False, True):
            cur = pos
            for j in range(span):
                np.subtract(A2, cur[:, :, None], out=diff)
                np.multiply(diff, diff, out=diff)
                d2 = d2h[j]
                # binary add of the two planes: exactly dx*dx + dy*dy
                np.add(diff[:, 0], diff[:, 1], out=d2)
                np.add(d2, sm, out=coef)
                np.sqrt(coef, out=coef)
                np.divide(W, coef, out=coef)
                if masked:
                    # a d2 == 0.0 entry is a skipped coincident anchor
                    # (or zero-weight padding with the iterate on the
                    # origin): its coef must be exact 0.0, not
                    # w/sqrt(smoothing).
                    np.copyto(coef, 0.0, where=d2 == 0.0)
                np.multiply(coef[:, None, :], A3, out=prod)
                nsum = sums[j]
                if fast:
                    # one fused pass over the three planes: num_x,
                    # num_y, den
                    np.add.reduce(prod, axis=2, out=nsum)
                else:
                    nsum[:] = _sequential_sum_last(prod)
                # den == 0.0 rows (every anchor coincides) go NaN here
                # and are unwound at the sweep below — the scalar loop
                # stops *before* this update.
                np.divide(nsum, nsum[:, 2:], out=traj[j])
                cur = traj[j, :, :2]
            if bool((d2h > 0.0).all()):
                # No step of any row touched a coincident anchor (the
                # overwhelmingly common case): the unmasked trajectories
                # are exact and the masked pass is skipped.  A d2 of 0.0
                # — or the NaNs it cascades into — fails the > 0.0 test,
                # triggering the one masked redo from the same start.
                break

        out: List[Tuple[object, float, float, int]] = []
        # Chebyshev step sizes for the whole window at once (the hot
        # loop records positions only): steps[j] = |traj[j] - traj[j-1]|
        # elementwise — identical doubles to a per-step computation.
        # The third channel contributes |1.0 - 1.0| = 0.0 (NaN on dead
        # rows), which never changes a maximum of absolute values.
        steps = np.empty((span, n, 3))
        np.subtract(traj[0, :, :2], base, out=steps[0, :, :2])
        steps[0, :, 2] = 0.0
        if span > 1:
            np.subtract(traj[1:], traj[:-1], out=steps[1:])
        np.abs(steps, out=steps)
        movs = np.maximum.reduce(steps, axis=2)
        fin = movs < tl         # NaN rows compare False
        dzero = sums[:, :, 2] == 0.0
        has_m = fin.any(axis=0)
        has_d = dzero.any(axis=0)
        finished = has_m | has_d
        used = self._used
        if finished.any():
            # First finish event per row; restore that row's state *at
            # its own event* from the window history (its later
            # in-window iterates touched nothing but its own lane).
            rows = np.arange(n)
            jm = fin.argmax(axis=0)
            jd = dzero.argmax(axis=0)
            move_fin = has_m & (~has_d | (jm < jd))
            for r in rows[move_fin]:
                out.append((
                    self._keys[r], float(traj[jm[r], r, 0]),
                    float(traj[jm[r], r, 1]), int(used[r] + jm[r] + 1),
                ))
            for r in rows[finished & ~move_fin]:
                # the den == 0 iteration is counted but does not move
                # the iterate: restore the *previous* position
                j = jd[r]
                px, py = (traj[j - 1, r, :2] if j > 0 else base[r])
                out.append((self._keys[r], float(px), float(py),
                            int(used[r] + j + 1)))
        alive = ~finished
        pos = traj[span - 1, :, :2]
        used = used + span
        exhausted = alive & (self._rem - span == 0)
        if exhausted.any():
            for r in np.arange(n)[exhausted]:
                out.append((self._keys[r], float(pos[r, 0]),
                            float(pos[r, 1]), int(used[r])))
            alive &= ~exhausted
        self._A3 = A3[alive]
        self._W = W[alive]
        self._pos = pos[alive]
        self._tl = tl[alive]
        self._sm = sm[alive]
        self._rem = self._rem[alive] - span
        self._used = used[alive]
        self._keys = [k for k, a in zip(self._keys, alive) if a]
        self._n = int(alive.sum())
        if self._n == 0:
            self._kmax = 0
        return out
