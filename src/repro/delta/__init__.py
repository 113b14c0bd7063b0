"""Edge-delta batches for streaming-graph serving (the ``repro.delta``
subsystem).

Static operands are the wrong model for the paper's flagship workloads:
k-truss repeatedly *shrinks* the support matrix and MCL repeatedly rewrites
values, and a long-lived service sees graphs that mutate between requests.
This package defines the mutation unit — :class:`DeltaBatch`, a batch of
edge inserts / deletes / value updates against one registered matrix — and
its exact application semantics. The service layer
(:meth:`repro.service.Engine.apply_delta`) applies a batch, swaps the
store entry and invalidates the cached results that read the old content.
Value-only batches keep the pattern fingerprint; a pattern batch yields a
new one.
"""

from .batch import DeltaBatch, DeltaError, DeltaOutcome, DeltaResult

__all__ = ["DeltaBatch", "DeltaError", "DeltaOutcome", "DeltaResult"]
