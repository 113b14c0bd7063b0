"""Named matrix store with memory accounting and LRU eviction.

The store is the engine's operand namespace: services register CSR matrices
and mask patterns once under string keys, then address them from requests.
Each entry carries a lazily-computed **pattern fingerprint**
(:func:`repro.sparse.ops.pattern_fingerprint`) and value fingerprint — the
result-cache key primitives — cached per registration so repeated requests
pay the O(nnz) hash only once, and recomputed on re-registration so a
changed operand misses by construction.

An optional byte budget turns the store into an LRU cache over operand
memory: registering past the budget evicts the least-recently-*used* entries
(use = resolved by a request or fetched via :meth:`MatrixStore.get`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..mask import Mask
from ..sparse.csr import CSRMatrix
from ..sparse.ops import pattern_fingerprint, value_fingerprint


class StoreError(ReproError):
    """Unknown key, over-budget registration, or similar store misuse."""


def matrix_nbytes(m: CSRMatrix | Mask) -> int:
    """Resident bytes of a CSR matrix or mask (its numpy arrays)."""
    n = m.indptr.nbytes + m.indices.nbytes
    if isinstance(m, CSRMatrix):
        n += m.data.nbytes
    return n


@dataclass
class StoreEntry:
    value: CSRMatrix | Mask
    nbytes: int
    pinned: bool = False
    #: monotonic per-key mutation counter: bumped on every re-registration
    #: or delta swap. The engine snapshots it at request resolution and
    #: refuses late result-cache writebacks whose snapshot is stale — the
    #: version guard that keeps a delta applied mid-request from letting a
    #: pre-delta product land in the cache (see Engine.apply_delta).
    version: int = 0
    _fingerprint: str | None = field(default=None, repr=False)
    _value_fingerprint: str | None = field(default=None, repr=False)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            v = self.value
            self._fingerprint = pattern_fingerprint(v.indptr, v.indices, v.shape)
        return self._fingerprint

    @property
    def value_fingerprint(self) -> str:
        """Content hash of the stored values (CSR matrices only; masks are
        pure patterns and hash to a constant). Memoized per registration like
        :attr:`fingerprint`, so re-registering with new values recomputes —
        which is exactly what keys the ResultCache correctly."""
        if self._value_fingerprint is None:
            v = self.value
            self._value_fingerprint = (value_fingerprint(v.data)
                                       if isinstance(v, CSRMatrix) else "mask")
        return self._value_fingerprint


class MatrixStore:
    """Key → matrix/mask registry with LRU eviction under a byte budget.

    Parameters
    ----------
    budget_bytes : int | None
        Soft ceiling on total resident operand bytes. None = unbounded.
        Pinned entries never count as eviction candidates.
    """

    def __init__(self, budget_bytes: int | None = None):
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._entries: dict[str, StoreEntry] = {}  # insertion order = LRU order
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def register(self, key: str, value: CSRMatrix | Mask, *,
                 pin: bool = False) -> StoreEntry:
        """Insert or replace ``key``. Replacement drops the cached
        fingerprints, so a value-only update recomputes to the *same*
        pattern fingerprint and a new value fingerprint."""
        if not isinstance(value, (CSRMatrix, Mask)):
            raise StoreError(
                f"store values must be CSRMatrix or Mask, got {type(value).__name__}"
            )
        old = self._entries.pop(key, None)
        entry = StoreEntry(value, matrix_nbytes(value), pinned=pin,
                           version=old.version + 1 if old is not None else 0)
        if self.budget_bytes is not None:
            # feasibility first: reject before evicting anything, and restore
            # the replaced entry, so a failed registration leaves the store
            # exactly as it was.
            unevictable = sum(e.nbytes for e in self._entries.values()
                              if e.pinned)
            if entry.nbytes + unevictable > self.budget_bytes:
                if old is not None:
                    self._entries[key] = old
                raise StoreError(
                    f"cannot register {key!r}: {entry.nbytes} bytes plus "
                    f"{unevictable} pinned bytes exceed the "
                    f"{self.budget_bytes}-byte budget"
                )
        self._entries[key] = entry
        self._enforce_budget(protect=key)
        return entry

    def get(self, key: str) -> CSRMatrix | Mask:
        return self.entry(key).value

    def entry(self, key: str) -> StoreEntry:
        """Fetch the entry and mark it most-recently-used."""
        try:
            entry = self._entries.pop(key)
        except KeyError:
            raise StoreError(
                f"no matrix registered under {key!r}; "
                f"known keys: {sorted(self._entries)}"
            ) from None
        self._entries[key] = entry  # move to MRU position
        return entry

    def swap(self, key: str, value: CSRMatrix | Mask, *,
             fingerprint: str | None = None,
             value_fingerprint: str | None = None) -> StoreEntry:
        """Replace ``key``'s matrix in place: same LRU position, same pinned
        flag, version bumped. This is the delta path's mutation primitive —
        unlike :meth:`register` it accepts pre-computed fingerprints, so a
        value-only delta carries the *old pattern fingerprint forward*
        (no re-hashing of the unchanged pattern) and callers can hash
        outside their locks."""
        try:
            old = self._entries[key]
        except KeyError:
            raise StoreError(
                f"no matrix registered under {key!r}; "
                f"known keys: {sorted(self._entries)}"
            ) from None
        entry = StoreEntry(value, matrix_nbytes(value), pinned=old.pinned,
                           version=old.version + 1,
                           _fingerprint=fingerprint,
                           _value_fingerprint=value_fingerprint)
        if self.budget_bytes is not None:
            unevictable = sum(e.nbytes for k, e in self._entries.items()
                              if e.pinned and k != key)
            if entry.nbytes + unevictable > self.budget_bytes:
                raise StoreError(
                    f"cannot swap {key!r}: {entry.nbytes} bytes plus "
                    f"{unevictable} pinned bytes exceed the "
                    f"{self.budget_bytes}-byte budget"
                )
        self._entries[key] = entry  # assignment keeps the LRU position
        self._enforce_budget(protect=key)
        return entry

    def version(self, key: str) -> int | None:
        """Current mutation version of ``key`` (None when absent). Does not
        touch LRU order — this is the writeback guard's read path."""
        entry = self._entries.get(key)
        return None if entry is None else entry.version

    def evict(self, key: str) -> bool:
        """Drop ``key``; returns whether it was present."""
        return self._entries.pop(key, None) is not None

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[tuple[str, StoreEntry]]:
        """Snapshot of (key, entry) pairs without touching LRU order — the
        delta path's fingerprint-map source."""
        return list(self._entries.items())

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    # ------------------------------------------------------------------ #
    def _enforce_budget(self, *, protect: str) -> None:
        if self.budget_bytes is None:
            return
        while self.total_bytes > self.budget_bytes:
            victim = next(
                (k for k, e in self._entries.items()
                 if k != protect and not e.pinned), None)
            if victim is None:
                # unreachable: register() pre-checks feasibility. A pinned
                # protect entry over budget would be the only way here.
                raise StoreError(
                    f"matrix store over budget ({self.total_bytes} > "
                    f"{self.budget_bytes} bytes) with no evictable entries"
                )
            del self._entries[victim]
            self.evictions += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "∞" if self.budget_bytes is None else str(self.budget_bytes)
        return (f"<MatrixStore {len(self._entries)} entries, "
                f"{self.total_bytes}/{cap} bytes>")
