"""Request deadlines: a monotonic budget carried from admission to kernels.

A production request is only worth finishing while its caller is still
waiting. :class:`Deadline` is the one representation of that budget used
across the stack: the async server starts it at admission
(``Request.deadline_ms``) and the engine checks it between phases — so a
request that has already lost its caller is *shed* (cheap, typed failure)
instead of occupying a worker.

Design points:

* **monotonic, absolute.** The deadline is an absolute point on
  ``time.monotonic()``; ``remaining()`` can be re-derived at every
  enforcement site without accumulating drift.
* **typed failure.** Every enforcement site raises
  :class:`DeadlineExceeded` (a :class:`~repro.errors.ReproError`), tagged
  with the *stage* that shed the work — admission, queue, engine — so
  callers and metrics can tell "the server refused" from "the engine ran
  out of budget".
* **None is infinite.** Requests without ``deadline_ms`` never construct a
  Deadline; every enforcement site accepts ``None`` and does nothing, so
  the hot path for undeadlined traffic stays a single identity check.
"""

from __future__ import annotations

import time

from ..errors import ReproError

__all__ = ["Deadline", "DeadlineExceeded"]


class DeadlineExceeded(ReproError):
    """The request's deadline expired before (or while) the work ran.

    ``stage`` names the enforcement site that shed the request —
    ``"admission"``, ``"queue"``, ``"follower"``, ``"engine"`` — the same
    vocabulary the ``repro_deadline_total{stage}`` metric uses.
    """

    def __init__(self, message: str, *, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class Deadline:
    """An absolute point on the monotonic clock a request must finish by."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after_ms(cls, deadline_ms: float | None) -> "Deadline | None":
        """Start a deadline ``deadline_ms`` from now (None → no deadline)."""
        if deadline_ms is None:
            return None
        return cls(time.monotonic() + float(deadline_ms) / 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str, detail: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        rem = self.remaining()
        if rem <= 0.0:
            extra = f" ({detail})" if detail else ""
            raise DeadlineExceeded(
                f"deadline exceeded at {stage}{extra}: "
                f"{-rem * 1e3:.1f} ms past budget", stage=stage)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Deadline {self.remaining() * 1e3:+.1f} ms>"


def resolve_deadline(request) -> Deadline | None:
    """The started deadline for a request: the one the async server stamped
    at admission when there is one (so queue time counts against the
    budget), else a fresh one from ``deadline_ms`` (direct engine callers),
    else None."""
    started = getattr(request, "_deadline", None)
    if started is not None:
        return started
    ms = getattr(request, "deadline_ms", None)
    return Deadline.after_ms(ms)
