#!/usr/bin/env python
"""Sanitizer check: the compiled C kernels under ASan + UBSan.

The C kernels in :mod:`repro.native.cffi_backend` are the only
memory-unsafe code in the repo: they index raw operand and scratch
buffers with no bounds checks. This check compiles that exact source
(``C_SOURCE``) with ``-fsanitize=address,undefined`` into a temporary
directory, loads it through cffi with the same ``C_DECLS``, and runs every
C entry point — ``msa_plain``, ``msa_compl`` and ``symbolic`` — through
the real faces of :mod:`repro.native.kernels` on seeded fixtures. Every output is compared
bit-identically with the fused NumPy kernels. A sanitizer finding aborts
the process (``-fno-sanitize-recover=all``), so any error exits non-zero.

The MSA entry points dispatch once per call on the semiring's op pair, so
every fixture runs under each of the seven standard semirings (one
``switch`` case each; ``plus_pair`` over a plain mask is the counter loop)
and under min/times, a compiled pairing that is no standard semiring and
takes the ``default:`` case with runtime op codes.

The fixtures cover plain and complemented masks, empty A and mask rows, a
zero-column product, row subsets in chunk order and both faces (stitch
and direct write). Every complemented fixture also runs as a bitmap mask
(``Mask.from_bitmap``), which ``msa_compl`` reads in place and the
symbolic entry point reads through its CSR view, with one row banned
everywhere beside the empty (all-clear) mask rows. Two fixture families
reach the complemented MSA gather's word walk and its sort fallback:

* seeded products with several hundred columns, plain and complemented,
  so the bitset gather walks many 64-column words per row;
* a complemented product with about 2^20 columns whose rows touch a few
  columns far apart (the gather sorts them) beside one dense run (the
  gather walks it).

The faces reuse one scratch set per thread across calls. The main pass
starts every fixture on fresh scratch as wide as its output, so an index
past the output width lands outside the buffer, where ASan sees it. A
second pass then runs every fixture back to back on one scratch set, in
order of growing and then shrinking width, so the sanitizers also see
each loop on buffers wider than its product and left behind by the other
loops.

An ASan-instrumented library can only load into a process whose first
loaded library is the ASan runtime. When ``LD_PRELOAD`` does not carry it
yet, the check re-executes itself with
``LD_PRELOAD=$(cc -print-file-name=libasan.so)`` and
``ASAN_OPTIONS=detect_leaks=0`` (the interpreter's own allocations are not
this check's business).

Run from anywhere: ``python tools/check_native_asan.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

FLAGS = ["-O1", "-g", "-ffp-contract=off", "-fPIC", "-shared",
         "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all"]
SEEDS = range(12)


def _ensure_asan_preloaded(cc: str) -> None:
    if "libasan" in os.environ.get("LD_PRELOAD", ""):
        return
    runtime = subprocess.run([cc, "-print-file-name=libasan.so"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime):
        sys.exit(f"{cc} has no ASan runtime (libasan.so); cannot run")
    env = dict(os.environ, LD_PRELOAD=runtime)
    env.setdefault("ASAN_OPTIONS", "detect_leaks=0")
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def build(cc: str, workdir: str):
    """Compile ``C_SOURCE`` sanitized and load it as the cffi backend."""
    import cffi

    from repro.native import cffi_backend

    src = os.path.join(workdir, "kernels.c")
    so = os.path.join(workdir, "kernels_asan.so")
    with open(src, "w") as fh:
        fh.write(cffi_backend.C_SOURCE)
    subprocess.run([cc, *FLAGS, "-o", so, src, "-lm"], check=True)
    ffi = cffi.FFI()
    ffi.cdef(cffi_backend.C_DECLS)
    # the backend's wrappers call load(), which returns the library already
    # bound here instead of building the unsanitized one
    cffi_backend._FFI, cffi_backend._LIB = ffi, ffi.dlopen(so)
    return cffi_backend


def _fixtures():
    import numpy as np

    from repro.mask import Mask
    from repro.sparse import CSRMatrix, csr_random

    def drop_rows(M, drop):
        keep = np.repeat(~drop, np.diff(M.indptr))
        indptr = np.zeros(M.nrows + 1, dtype=np.int64)
        np.cumsum(np.where(drop, 0, np.diff(M.indptr)), out=indptr[1:])
        return CSRMatrix(indptr, M.indices[keep], M.data[keep], M.shape)

    def with_bitmap(name, A, B, M, row_sets, banned_row):
        """The complemented CSR fixture, then its bitmap form with
        ``banned_row`` banned everywhere."""
        yield name, A, B, Mask.from_matrix(M, complemented=True), row_sets
        bitmap = np.zeros(M.shape, dtype=bool)
        bitmap[np.repeat(np.arange(M.nrows), M.row_nnz()), M.indices] = True
        bitmap[banned_row] = True
        yield (f"{name} bitmap", A, B,
               Mask.from_bitmap(bitmap, complemented=True), row_sets)

    for seed in SEEDS:
        r = np.random.default_rng(seed)
        m, k = (int(x) for x in r.integers(1, 48, 2))
        n = 0 if seed == 0 else int(r.integers(1, 64))
        da, dm = r.uniform(0.02, 0.4), r.uniform(0.0, 0.5)
        A = drop_rows(csr_random(m, k, density=da, rng=r,
                                 values="uniform"), r.random(m) < 0.2)
        B = csr_random(k, n, density=da, rng=r, values="uniform")
        M = drop_rows(csr_random(m, n, density=dm, rng=r),
                      r.random(m) < 0.2)
        rows = np.flatnonzero(r.random(m) < 0.6).astype(np.int64)
        row_sets = (np.arange(m, dtype=np.int64), rows)
        yield f"seed={seed} compl=False", A, B, Mask.from_matrix(M), \
            row_sets
        yield from with_bitmap(f"seed={seed} compl=True", A, B, M, row_sets,
                               int(r.integers(m)))

    # several hundred columns: multi-word bitset walks
    for seed in (100, 101, 102):
        r = np.random.default_rng(seed)
        m, k = (int(x) for x in r.integers(8, 40, 2))
        n = int(r.integers(300, 700))
        A = drop_rows(csr_random(m, k, density=0.3, rng=r,
                                 values="uniform"), r.random(m) < 0.2)
        B = csr_random(k, n, density=r.uniform(0.01, 0.1), rng=r,
                       values="uniform")
        M = csr_random(m, n, density=r.uniform(0.0, 0.2), rng=r)
        rows = np.flatnonzero(r.random(m) < 0.6).astype(np.int64)
        row_sets = (np.arange(m, dtype=np.int64), rows)
        yield f"seed={seed} n={n} compl=False", A, B, Mask.from_matrix(M), \
            row_sets
        yield from with_bitmap(f"seed={seed} n={n} compl=True", A, B, M,
                               row_sets, int(r.integers(m)))

    # about 2**20 columns: sparse rows sort, the dense-run row walks words
    r = np.random.default_rng(98)
    n, k = 2**20 + 37, 5
    far = [np.sort(r.choice(n, 3, replace=False)) for _ in range(k - 1)]
    run = np.arange(n - 150, n - 10, dtype=np.int64)
    B = CSRMatrix(np.cumsum([0] + [f.size for f in far] + [run.size]),
                  np.concatenate(far + [run]).astype(np.int64),
                  r.random(3 * (k - 1) + run.size), (k, n))
    # rows 0, 2 and 4 sort (row 4 mixes far columns into the run), rows 1
    # and 5 walk the run's words, row 3 is empty; the bitmap form bans
    # row 4 everywhere
    A = CSRMatrix(np.array([0, 2, 3, 5, 5, 7, 8], dtype=np.int64),
                  np.array([0, 1, 4, 2, 3, 1, 4, 4], dtype=np.int64),
                  r.random(8), (6, k))
    M = CSRMatrix(np.array([0, 1, 3, 3, 3, 4, 4], dtype=np.int64),
                  np.array([far[0][1], n - 100, n - 11, far[1][0]],
                           dtype=np.int64), np.ones(4), (6, n))
    yield from with_bitmap("ncols=2**20+37 compl=True", A, B, M,
                           (np.arange(6, dtype=np.int64),
                            np.array([1, 2, 5])), 4)


def _check_fixture(fixture, semirings) -> int:
    """Every face on one fixture against the fused kernels; returns the
    number of comparisons made."""
    import numpy as np

    from repro.core import msa_kernel
    from repro.native import kernels

    def expect(ok, what):
        if not ok:
            sys.exit(f"MISMATCH: {what}")

    name, A, B, mask, row_sets = fixture
    checked = 0
    for rows in row_sets:
        want = msa_kernel.symbolic_rows(A, B, mask, rows)
        expect(np.array_equal(kernels.msa_symbolic_rows(A, B, mask, rows),
                              want), f"symbolic {name}")
        checked += 1
        for semiring in semirings:
            what = f"{semiring.name} {name}"
            ref = msa_kernel.numeric_rows(A, B, mask, semiring, rows)
            got = kernels.msa_numeric_rows(A, B, mask, semiring, rows)
            expect(np.array_equal(got.sizes, ref.sizes)
                   and np.array_equal(got.cols, ref.cols)
                   and np.array_equal(got.vals, ref.vals),
                   f"stitch {what}")
            offsets = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum(ref.sizes, out=offsets[1:])
            cols = np.empty(int(offsets[-1]), dtype=np.int64)
            vals = np.empty(int(offsets[-1]), dtype=np.float64)
            kernels.msa_numeric_rows_into(A, B, mask, semiring, rows, cols,
                                          vals, offsets)
            expect(np.array_equal(cols, ref.cols)
                   and np.array_equal(vals, ref.vals),
                   f"direct write {what}")
            checked += 2
    return checked


def check(backend) -> int:
    """Run every entry point against the fused kernels, each fixture on
    fresh scratch, then every fixture back to back on one scratch set at
    growing and shrinking widths; returns the number of comparisons."""
    from repro.native import kernels
    from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES, Semiring
    from repro.semiring.standard import _REGISTRY

    # every standard semiring (one dispatch case each) and min/times, the
    # off-table pairing the dispatch runs with runtime op codes
    semirings = list(dict.fromkeys(_REGISTRY.values())) + [
        Semiring(MIN_PLUS.add, PLUS_TIMES.mul, "min_times",
                 mul_scalar=lambda a, b: a * b)]
    if not all(kernels.supported(s) for s in semirings):
        sys.exit("a semiring under check is outside the compiled op table")

    checked = 0
    with mock.patch.object(kernels, "_backend", return_value=backend):
        fixtures = list(_fixtures())
        for fixture in fixtures:
            kernels._LOCAL.scratch = None  # fresh, exactly as wide
            checked += _check_fixture(fixture, semirings)
        # reused scratch: the two-state, counter and min loops, plain and
        # complemented, at growing then shrinking widths
        by_width = sorted(fixtures, key=lambda f: f[2].ncols)
        for fixture in by_width + by_width[::-1]:
            checked += _check_fixture(fixture,
                                      (PLUS_TIMES, PLUS_PAIR, MIN_PLUS))
    return checked


def main() -> None:
    from repro.native import cffi_backend

    cc = cffi_backend._compiler()
    if cc is None:
        sys.exit("no C compiler on PATH; cannot build the sanitized kernels")
    _ensure_asan_preloaded(cc)
    with tempfile.TemporaryDirectory(prefix="repro-asan-") as workdir:
        backend = build(cc, workdir)
        checked = check(backend)
    print(f"check_native_asan: {checked} comparisons over 3 C entry points "
          f"(msa_compl with CSR and bitmap masks), every dispatched op pair "
          f"and fresh and reused scratch, bit-identical to the fused "
          f"kernels under -fsanitize=address,undefined; no sanitizer error")


if __name__ == "__main__":
    main()
