#!/usr/bin/env python
"""Routing check: does ``algorithm="auto"`` pick the fastest kernel?

Replays the paper's Fig. 7 grid (Erdős-Rényi inputs and mask at
n = 2^10, input degrees 1–64, mask degrees 1–256) with plain and
complemented masks. For each cell it times every kernel
:func:`repro.core.registry.auto_select` can return — the fused table's
``inner``/``heap``/``esc``/``msa``/``hash``/``msa-loop`` and the compiled
``msa-native``/``hash-native`` — as one-phase ``masked_spgemm`` calls
(best of three after a warm-up), and prints auto's pick, the winner and
the pick's regret (pick time over winner time).

The summed regret is the summed time of auto's picks over the summed time
of the winners (1.0 means auto always picked the winner). The check exits
non-zero when it exceeds :data:`MAX_SUMMED_REGRET`: a routing rule that
keeps choosing a loser should fail here before it costs a workload.

Run from anywhere: ``PYTHONPATH=src python tools/check_routing.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

N = 1 << 10
INPUT_DEGREES = (1, 2, 4, 8, 16, 32, 64)
MASK_DEGREES = (1, 4, 16, 64, 256)
#: every key auto_select can return
ROUTABLE = ("inner", "heap", "esc", "msa", "hash", "msa-loop",
            "msa-native", "hash-native")
MAX_SUMMED_REGRET = 1.25


def time_cell(A, B, mask) -> dict[str, float]:
    """Best-of-three seconds of every routable kernel that supports the
    mask (``inner`` has no complemented form)."""
    from repro import masked_spgemm
    from repro.bench import time_callable
    from repro.core.registry import get_spec

    times = {}
    for key in ROUTABLE:
        if mask.complemented and not get_spec(key).supports_complement:
            continue
        times[key] = time_callable(
            lambda k=key: masked_spgemm(A, B, mask, algorithm=k),
            repeats=3, warmup=1)
    return times


def main() -> int:
    from repro import native
    from repro.core.registry import auto_select
    from repro.graphs import erdos_renyi
    from repro.mask import Mask

    print(f"# native backend: {native.native_backend_name() or 'none'}")
    print(f"{'mask':>5} {'d_in':>4} {'d_m':>4}  {'pick':<12} "
          f"{'winner':<12} {'pick_ms':>9} {'best_ms':>9} {'regret':>7}")
    pick_total = best_total = 0.0
    for complemented in (False, True):
        for d_in in INPUT_DEGREES:
            A = erdos_renyi(N, d_in, rng=3 * d_in + 1)
            B = erdos_renyi(N, d_in, rng=3 * d_in + 2)
            for d_m in MASK_DEGREES:
                mask = Mask.from_matrix(erdos_renyi(N, d_m, rng=3 * d_m + 3),
                                        complemented=complemented)
                pick = auto_select(A, B, mask)
                times = time_cell(A, B, mask)
                best = min(times, key=times.get)
                pick_total += times[pick]
                best_total += times[best]
                print(f"{'compl' if complemented else 'plain':>5} "
                      f"{d_in:>4} {d_m:>4}  {pick:<12} {best:<12} "
                      f"{times[pick] * 1e3:>9.3f} {times[best] * 1e3:>9.3f} "
                      f"{times[pick] / times[best]:>7.2f}")
    summed = pick_total / best_total
    verdict = "PASS" if summed <= MAX_SUMMED_REGRET else "FAIL"
    print(f"summed regret {summed:.3f} (auto {pick_total * 1e3:.1f} ms vs "
          f"best {best_total * 1e3:.1f} ms; need <= {MAX_SUMMED_REGRET}) "
          f"-> {verdict}")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
