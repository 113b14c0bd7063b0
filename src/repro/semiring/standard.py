"""Standard semirings used by the paper's applications.

* ``PLUS_TIMES`` (arithmetic) — the semiring the paper uses in all its
  algorithm descriptions (§2).
* ``PLUS_PAIR`` — multiply is the constant 1 whenever both operands exist;
  the sum then counts pattern intersections. This is the semiring
  SuiteSparse uses for triangle counting and k-truss support counting: the
  (i,j) output entry counts common neighbours of i and j.
* ``PLUS_FIRST`` / ``PLUS_SECOND`` — multiply passes through one operand;
  betweenness centrality's path-count propagation is PLUS_FIRST over the
  frontier.
* ``MIN_PLUS`` (tropical) — shortest-path relaxation.
* ``MAX_TIMES`` — max-product relaxation (most probable paths).
* ``OR_AND`` — boolean reachability (values constrained to {0.0, 1.0}).
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from .semiring import Monoid, Semiring

_PLUS = Monoid(np.add, 0.0, "plus")
_MIN = Monoid(np.minimum, float("inf"), "min")
_MAX = Monoid(np.maximum, float("-inf"), "max")
# Boolean OR over float {0,1} carriers: maximum is OR and supports .at/.reduceat.
_OR = Monoid(np.maximum, 0.0, "or")


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.ones(np.broadcast(a, b).shape, dtype=np.float64)


def _first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(a, dtype=np.float64),
                           np.broadcast(a, b).shape).copy()


def _second(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(b, dtype=np.float64),
                           np.broadcast(a, b).shape).copy()


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((np.asarray(a) != 0) & (np.asarray(b) != 0)).astype(np.float64)


PLUS_TIMES = Semiring(_PLUS, _times, "plus_times", mul_scalar=lambda a, b: a * b)
#: Alias — the paper calls this "the arithmetic semiring".
ARITHMETIC = PLUS_TIMES

PLUS_PAIR = Semiring(_PLUS, _pair, "plus_pair", mul_scalar=lambda a, b: 1.0)
PLUS_FIRST = Semiring(_PLUS, _first, "plus_first", mul_scalar=lambda a, b: a)
PLUS_SECOND = Semiring(_PLUS, _second, "plus_second", mul_scalar=lambda a, b: b)
MIN_PLUS = Semiring(_MIN, _plus, "min_plus", mul_scalar=lambda a, b: a + b)
MAX_TIMES = Semiring(_MAX, _times, "max_times", mul_scalar=lambda a, b: a * b)
OR_AND = Semiring(
    _OR, _and, "or_and",
    mul_scalar=lambda a, b: 1.0 if (a != 0 and b != 0) else 0.0,
)

_REGISTRY = {
    s.name: s
    for s in (PLUS_TIMES, PLUS_PAIR, PLUS_FIRST, PLUS_SECOND, MIN_PLUS, MAX_TIMES, OR_AND)
}
_REGISTRY["arithmetic"] = PLUS_TIMES


def by_name(name: str) -> Semiring:
    """Look up a standard semiring by name (e.g. ``"plus_pair"``)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AlgorithmError(
            f"unknown semiring {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
