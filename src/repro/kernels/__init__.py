"""Pluggable compute backends for the synthesis hot paths.

Selection order (first match wins):

1. an explicit backend — ``SynthesisOptions(kernels="numpy")`` /
   ``repro synthesize --kernels numpy`` / :func:`use_kernels`;
2. the ``REPRO_KERNELS`` environment variable (``python`` | ``numpy``);
3. auto-detect: ``numpy`` (always available — it is a core
   dependency), else ``python``.

Every backend is **bit-identical**: same result JSON, same costs, same
verdicts, same iteration counts — the backend changes *how fast* the
answer arrives, never the answer (contract and rationale in
:mod:`repro.kernels.base`; enforcement in
``tests/test_kernels_differential.py``).  Because results are
backend-invariant, the backend choice is execution metadata: it is
excluded from checkpoint instance fingerprints, and journals written
under one backend resume cleanly under another.

The active backend is ambient (like the tracer and the persistent
cache): :func:`current_kernels` reads it, :func:`use_kernels` scopes
it, :func:`set_kernels` installs it process-wide (pool workers).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from .base import KernelBackend, WeiszfeldTask
from .pyref import PythonKernels

__all__ = [
    "KernelBackend",
    "WeiszfeldTask",
    "PythonKernels",
    "KERNEL_BACKENDS",
    "available_backends",
    "resolve_backend",
    "current_kernels",
    "use_kernels",
    "set_kernels",
]

#: selection names, in auto-detect preference order (first available
#: wins when neither an explicit choice nor ``REPRO_KERNELS`` is set).
KERNEL_BACKENDS = ("numpy", "python")

_ENV_VAR = "REPRO_KERNELS"

_instances: Dict[str, KernelBackend] = {}
_unavailable: Dict[str, str] = {}
_lock = threading.Lock()


def _load(name: str) -> Optional[KernelBackend]:
    """Instantiate (and cache) one backend; None when unavailable."""
    with _lock:
        if name in _instances:
            return _instances[name]
        if name in _unavailable:
            return None
        try:
            if name == "python":
                backend: KernelBackend = PythonKernels()
            elif name == "numpy":
                from .numpy_backend import NumpyKernels

                backend = NumpyKernels()
            else:
                raise ValueError(
                    f"unknown kernel backend {name!r}; "
                    f"choose from {', '.join(KERNEL_BACKENDS)} or 'auto'"
                )
        except ImportError as exc:
            _unavailable[name] = str(exc)
            return None
        _instances[name] = backend
        return backend


def available_backends() -> List[str]:
    """Names of the backends importable in this environment."""
    return [name for name in KERNEL_BACKENDS if _load(name) is not None]


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend per the documented selection order.

    ``name=None``/``"auto"`` consults ``REPRO_KERNELS`` and then
    auto-detects.  An explicitly named backend that is not importable
    raises :class:`RuntimeError` (loud, not a silent fallback).
    """
    if name is None or name == "auto":
        name = os.environ.get(_ENV_VAR) or None
    if name is None or name == "auto":
        for candidate in KERNEL_BACKENDS:
            backend = _load(candidate)
            if backend is not None:
                return backend
        raise RuntimeError("no kernel backend available")  # pragma: no cover
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"choose from {', '.join(KERNEL_BACKENDS)} or 'auto'"
        )
    backend = _load(name)
    if backend is None:
        raise RuntimeError(
            f"kernel backend {name!r} requested but not available: "
            f"{_unavailable.get(name, 'import failed')}"
        )
    return backend


# --------------------------------------------------------------------
# ambient backend (mirrors repro.obs.current_tracer / tracing)
# --------------------------------------------------------------------
_ambient = threading.local()


def current_kernels() -> KernelBackend:
    """The ambient backend (innermost :func:`use_kernels` scope, else
    the process default installed by :func:`set_kernels`, else the
    auto-resolved backend)."""
    stack = getattr(_ambient, "stack", None)
    if stack:
        return stack[-1]
    default = getattr(current_kernels, "_default", None)
    if default is not None:
        return default
    return resolve_backend(None)


def set_kernels(backend: Union[KernelBackend, str, None]) -> None:
    """Install the process-default backend (None = back to auto).

    Used by pool-worker initializers so a parent's explicit backend
    choice follows the work into every worker process.
    """
    if isinstance(backend, str):
        backend = resolve_backend(backend)
    current_kernels._default = backend  # type: ignore[attr-defined]


@contextmanager
def use_kernels(backend: Union[KernelBackend, str, None]) -> Iterator[KernelBackend]:
    """Scope the ambient backend for the duration of a ``with`` block."""
    resolved = backend if isinstance(backend, KernelBackend) else resolve_backend(backend)
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(resolved)
    try:
        yield resolved
    finally:
        stack.pop()
