"""The engine serves every request one-phase, bit-identical to the
reference tier.

``Request.phases`` is still accepted (1 or 2), but both values run the same
one-phase numeric pass down the same degrade ladder — resolved kernel →
fused base kernel (native keys only) → ``msa-loop``. This suite pins that
contract on the full grid: phases × mask polarity × compiled tier on/off ×
every rung of the ladder, forced through the ``engine.kernel`` fault seam.
"""

import pytest

from conftest import assert_bit_identical, make_triple
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import NATIVE_BASE
from repro.mask import Mask
from repro.resilience import FaultPlan
from repro.semiring import PLUS_TIMES
from repro.service import Engine, Request
from repro.service.engine import kernel_tier


def _rungs(algorithm):
    """Kernel tiers of the ladder the engine walks for ``algorithm``."""
    tiers = [kernel_tier(algorithm)]
    if algorithm in NATIVE_BASE:
        tiers.append("fused")
    return tiers + ["loop"]


@pytest.mark.parametrize("rung", [0, 1, 2])
@pytest.mark.parametrize("algorithm", ["auto", "msa-native", "hash-native",
                                       "esc"])
@pytest.mark.parametrize("native", ["auto", "off"])
@pytest.mark.parametrize("complemented", [False, True],
                         ids=["plain", "complemented"])
@pytest.mark.parametrize("phases", [1, 2])
def test_every_rung_bit_identical_to_reference(rng, native_mode, phases,
                                               complemented, native,
                                               algorithm, rung):
    native_mode(native)
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    want = reference_masked_spgemm(
        A, B, Mask.from_matrix(M, complemented=complemented),
        algorithm="msa", semiring=PLUS_TIMES)
    # an empty plan, not None: None would read $REPRO_FAULTS
    eng = Engine(faults=FaultPlan([f"engine.kernel:error:{rung}"] if rung
                                  else []))
    for key, value in (("A", A), ("B", B), ("M", M)):
        eng.register(key, value)
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M",
                                  complemented=complemented,
                                  algorithm=algorithm, phases=phases))
    finally:
        eng.close()
    resolved = resp.stats.algorithm
    if algorithm != "auto":
        assert resolved == algorithm
    elif native == "off":
        assert not resolved.endswith("-native")
    rungs = _rungs(resolved)
    assert resp.stats.kernel_tier == rungs[min(rung, len(rungs) - 1)]
    assert resp.stats.serving_tier == "computed"
    assert_bit_identical(resp.result, want,
                         f"{algorithm}->{resolved} rung {rung} {phases}P")


@pytest.mark.parametrize("algorithm", ["nonesuch", "AUTO-ish"])
def test_unknown_kernel_fails_before_the_ladder(rng, algorithm):
    """Validation runs before the fault seam, so an injected fault can never
    let a malformed request degrade into a rung that happens to accept it."""
    from repro.errors import AlgorithmError

    A, B, M = make_triple(rng)
    eng = Engine(faults=FaultPlan(["engine.kernel:error:2"]))
    for key, value in (("A", A), ("B", B), ("M", M)):
        eng.register(key, value)
    with pytest.raises(AlgorithmError):
        eng.submit(Request(a="A", b="B", mask="M", algorithm=algorithm))
    assert eng.faults.fired_total() == 0
    assert eng.stats.requests == 0
