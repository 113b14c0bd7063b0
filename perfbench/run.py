"""Benchmark entry point for the masked-SpGEMM stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tc-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines start with ``#``; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every op matched its oracle. See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tc-warm", "ktruss-stream", "bc-batch")
#: set-ups per run (one in this process, the rest in fresh processes)
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def _child(args: list[str], timeout: float) -> str:
    """Run a Python child with this benchmark's environment; wait for it."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=os.environ,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def prime_native() -> float:
    """Compile (or load from the on-disk cache) the native kernel tier in a
    child process and return its seconds — informational, not set-up: the
    compile is paid once per machine."""
    out = _child(["-c", "import time; t = time.perf_counter(); "
                  "import repro.native as n; n.warmup(); "
                  "print(time.perf_counter() - t)"], timeout=600)
    return float(out.split()[-1])


def cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 as the kernel reports them ({} when unknown)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def git_rev() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if rev.returncode != 0:
        return "unknown"
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def fingerprint(native_compile_s: float) -> dict:
    import numpy

    from repro import native

    env = {"cores": os.cpu_count(), "native_backend": native.native_backend_name(),
           "native_compile_s": round(native_compile_s, 4),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "git": git_rev(), **cache_sizes()}
    for mod in ("scipy", "cffi"):
        try:
            env[mod] = __import__(mod).__version__
        except ImportError:
            env[mod] = None
    return env


async def setup_only(name: str, seed: int) -> float:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    await wl.setup()
    seconds = time.perf_counter() - t0
    await wl.close()
    return seconds


def report(name: str, trace: bool, res: dict, metrics: dict,
           env: dict) -> None:
    print(f"# workload {name} ({'traced' if trace else 'end-to-end'} run)")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print("# setup runs (s): "
          + ", ".join(f"{s:.4f}" for s in res["setup_runs"]))
    print(f"# oracle: {res['verdict']}")
    for i, phase in enumerate(res["phases"]):
        print(f"# phase {i}: {phase.attempted} ops attempted, {phase.failed} "
              f"failed, failed_frac {phase.failed / max(phase.attempted, 1)}"
              f", {phase.wall:.3f} s measured")
        for err in phase.errors[:5]:
            print(f"#   failure: {err}")
    lat = res["latency"]
    print(f"# latency samples {lat['samples']}, highest percentile with ten "
          f"samples beyond it: p{lat['top_percentile']}")
    for row in res.get("regret", []):
        print(f"# regret: auto picked {row['pick']} ({row['pick_ms']:.3f} ms)"
              f", fastest {row['best']} ({row['best_ms']:.3f} ms)")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # child mode: time one set-up
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    # the native compile cache, and the compiler's temporary files, stay
    # inside the checkout
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(build / "repro-native")
    os.environ["TMPDIR"] = str(build / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_only:
        print(json.dumps({"setup_s": asyncio.run(
            setup_only(args.workload, args.seed))}))
        return 0

    native_compile_s = prime_native()
    others = [json.loads(_child([str(HERE / "run.py"), "--workload",
                                 args.workload, "--seed", str(args.seed),
                                 "--seconds", "0", "--setup-only"],
                                timeout=CHILD_TIMEOUT_S).splitlines()[-1]
                         )["setup_s"]
              for _ in range(SETUP_RUNS - 1)]

    from harness import END_TO_END, run_workload, unit_of

    trace = bool(args.trace)
    res = asyncio.run(run_workload(args.workload, args.seed, args.seconds,
                                   trace, other_setups=others))
    e2e_units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": unit_of(k) if trace else e2e_units[k]}
               for k, v in res["metrics"].items()}
    report(args.workload, trace, res, metrics, fingerprint(native_compile_s))
    attempted = sum(p.attempted for p in res["phases"])
    failed = sum(p.failed for p in res["phases"])
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
