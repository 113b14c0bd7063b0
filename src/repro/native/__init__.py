"""repro.native — the compiled (C) kernel tier.

The fused numpy kernels are bound by numpy dispatch overhead, not memory
traffic; this package supplies the tight compiled inner loops the paper's
C++ numbers imply, behind the existing kernel registry as the
``msa-native`` routing tier (``listed=False`` — an execution strategy of
msa, not a new algorithm). Its dense accumulator is allocated once per
thread and reused across calls, so it also serves the wide outputs
(up to :data:`~repro.native.kernels.MSA_NCOLS_CAP` columns) the paper
gives to Hash.

The loops are C, compiled by :mod:`repro.native.cffi_backend` with whatever
C compiler is on PATH and loaded through cffi (``pip install repro[native]``).
The probe runs lazily, once per process: build/``dlopen`` the library, then
pass a bit-identity self-test against the fused kernels on tiny fixtures.
Probing moves the compile off the request path —
:meth:`repro.service.Engine.__init__` calls :func:`warmup`, which records it
as ``repro_native_compile_seconds``.

If either step fails, or ``REPRO_NATIVE`` is ``off`` (or any value other
than ``auto``/``cffi``/``c``), the tier is unavailable: every native entry
point delegates to the fused numpy kernels, ``native_available()`` is
False, ``auto_select`` keeps routing to the fused keys, and nothing anywhere
needs a guard. cffi releases the GIL for the whole kernel call, so chunks
run by a :class:`~repro.parallel.executor.ThreadExecutor` handed to
:func:`~repro.parallel.runner.parallel_masked_spgemm` (``executor=``), and
products served by concurrent server workers, overlap in the C loops.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["native_available", "native_backend", "native_backend_name",
           "warmup", "kernels"]

_LOCK = threading.RLock()
_PROBED = False
_BACKEND: tuple[str, object] | None = None
_PROBE_SECONDS = 0.0


def _probe() -> tuple[str, object] | None:
    global _PROBED, _BACKEND, _PROBE_SECONDS
    if _PROBED:
        return _BACKEND
    with _LOCK:
        if _PROBED:
            return _BACKEND
        mode = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
        backend = None
        t0 = time.perf_counter()
        if mode in ("auto", "", "cffi", "c"):
            try:
                from . import cffi_backend as mod
                from . import kernels

                mod.load()
                kernels.self_test(mod)  # bit-identity gate + forced compile
                backend = ("cffi", mod)
            except Exception:
                pass
        _PROBE_SECONDS = time.perf_counter() - t0
        _BACKEND = backend
        _PROBED = True
        return _BACKEND


def native_backend() -> tuple[str, object] | None:
    """The resolved ``(name, module)`` backend, or None. First call probes
    (compiles); later calls are a memoized read."""
    return _probe()


def native_backend_name() -> str | None:
    b = _probe()
    return None if b is None else b[0]


def native_available() -> bool:
    """True when the compiled backend passed its probe on this machine."""
    return _probe() is not None


def warmup(metrics=None) -> float:
    """Resolve + compile the native tier off the request path.

    Returns the probe duration in seconds (memoized — a second engine in
    the same process reports the same number without recompiling; 0.0 when
    the tier is unavailable). When ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) is given, records the duration as
    the ``repro_native_compile_seconds`` gauge either way, so dashboards
    can tell "compiled in 3s at startup" from "tier absent".
    """
    _probe()
    seconds = _PROBE_SECONDS
    if metrics is not None:
        metrics.gauge(
            "repro_native_compile_seconds",
            "Seconds spent probing + C-compiling the native kernel "
            "tier at engine construction (0 when the tier is unavailable "
            "or was already compiled by an earlier engine)",
        ).set(seconds if native_available() else 0.0)
    return seconds if native_available() else 0.0


def _reset_probe() -> None:
    """Forget the memoized probe (tests flip ``REPRO_NATIVE`` around this)."""
    global _PROBED, _BACKEND, _PROBE_SECONDS
    with _LOCK:
        _PROBED = False
        _BACKEND = None
        _PROBE_SECONDS = 0.0
