"""repro.native — the compiled (JIT/C) kernel tier.

The fused numpy kernels (PRs 2+4) are bound by numpy dispatch overhead, not
memory traffic; this package supplies the tight compiled inner loops the
paper's C++ numbers imply, behind the existing kernel registry as the
``msa-native`` / ``hash-native`` routing tiers (``listed=False`` — execution
strategies of msa/hash, not new algorithms).

Backend ladder, probed lazily and memoized:

1. **numba** (:mod:`repro.native.numba_backend`) — JIT with
   ``nopython=True, nogil=True, cache=True``; the preferred tier, installed
   via ``pip install repro[native]``;
2. **cffi/C** (:mod:`repro.native.cffi_backend`) — the same loops compiled
   from embedded C source with whatever C compiler is on PATH, loaded
   ABI-mode; covers boxes with a toolchain but no numba;
3. **unavailable** — every native entry point delegates to the fused numpy
   kernels, ``native_available()`` is False, ``auto_select`` keeps routing
   to the fused keys, and nothing anywhere needs a guard.

A backend only becomes *the* backend after passing a bit-identity self-test
against the fused kernels on tiny fixtures (probing doubles as JIT warmup,
so :meth:`repro.service.Engine.__init__` calling :func:`warmup` moves the
compile off the request path and records it as
``repro_native_compile_seconds``).

``REPRO_NATIVE`` overrides the ladder: ``off`` disables the tier entirely,
``numba`` / ``cffi`` pin one backend (probe failure then means unavailable,
no fallthrough). Both compiled backends release the GIL for the whole
kernel call, which is what the thread backend in
:mod:`repro.parallel.runner` (``backend="thread"``) builds on.
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
        order = {"auto": ("numba", "cffi"), "": ("numba", "cffi"),
                 "numba": ("numba",), "cffi": ("cffi",), "c": ("cffi",),
                 }.get(mode, ())
        if mode in ("off", "0", "none", "disabled"):
            order = ()
        backend = None
        t0 = time.perf_counter()
        for name in order:
            try:
                if name == "numba":
                    from . import numba_backend as mod
                else:
                    from . import cffi_backend as mod
                    mod.load()
                from . import kernels

                kernels.self_test(mod)  # bit-identity gate + forced compile
                backend = (name, mod)
                break
            except Exception:
                continue
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
    """True when a compiled backend passed its probe on this machine."""
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
            "Seconds spent probing + JIT/C-compiling the native kernel "
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
