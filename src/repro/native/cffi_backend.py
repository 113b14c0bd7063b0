"""cffi/C backend for the compiled kernel tier.

The five inner loops of the native tier (see :mod:`repro.native`) — four
numeric passes (MSA and hash, plain and complemented masks) and one
pattern-only symbolic pass — are compiled once from the embedded C source
below with the system C compiler into a shared object, loaded ABI-mode
through :mod:`cffi`, and called with zero-copy pointers into the operand
arrays. cffi releases the GIL for the duration of every foreign call, which
is what lets the thread backend in :mod:`repro.parallel.runner` scatter
chunks concurrently from a plain thread pool.

Build artifacts are content-addressed: the ``.so`` is keyed by the SHA-256 of
the C source (plus the compiler command), cached under
``$REPRO_NATIVE_CACHE`` (default: a per-user directory beneath the system
temp dir) and installed with an atomic rename, so concurrent probes — e.g.
parallel test processes — race benignly and every later
process pays a ``dlopen`` instead of a compile.

Semantics contract (bit-identity with the fused numpy kernels):

* accumulators initialize to the monoid identity and then fold products in
  **stream order** (A-row entries by k ascending, each expanding its B row
  left to right) — exactly what ``np.bincount`` (zero-init + sequential
  adds) and ``np.full(identity)`` + ``ufunc.at`` compute. The first product
  is *added to the identity*, never assigned, so e.g. a lone ``-0.0``
  product lands as ``0.0 + (-0.0) == +0.0`` under ``+``, matching bincount;
* ``min``/``max`` replicate ``np.minimum``/``np.maximum`` NaN handling:
  the accumulate step is ``acc = (acc < x || isnan(acc)) ? acc : x`` (resp.
  ``>``), which returns whichever operand is NaN (the first when both are);
* plain masks gather surviving columns in mask (sorted) order; complemented
  masks emit the sorted distinct surviving columns;
* the MSA loops keep two states per column for plain masks (allowed and
  hit: the paper's ALLOWED and SET differ only at gather time, so allowed
  columns are preset to the identity and every flop folds without a
  branch), and untouched/banned/set for complemented masks, whose gather
  sorts the touched list for rows with few columns over a wide range and
  otherwise sets the touched columns in a bitset and walks it with
  count-trailing-zeros;
* the symbolic pass writes, per row, the count of distinct columns the
  numeric pass would emit — the exact sizes of the fused ``symbolic_rows``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

C_DECLS = """
int64_t msa_plain(const int64_t *a_indptr, const int64_t *a_indices,
                  const double *a_data, const int64_t *b_indptr,
                  const int64_t *b_indices, const double *b_data,
                  const int64_t *m_indptr, const int64_t *m_indices,
                  const int64_t *rows, int64_t nrows,
                  int64_t add_op, int64_t mul_op, double identity,
                  int64_t *offsets, int64_t validate,
                  int64_t *out_cols, double *out_vals,
                  signed char *states, double *values);
int64_t msa_compl(const int64_t *a_indptr, const int64_t *a_indices,
                  const double *a_data, const int64_t *b_indptr,
                  const int64_t *b_indices, const double *b_data,
                  const int64_t *m_indptr, const int64_t *m_indices,
                  const int64_t *rows, int64_t nrows,
                  int64_t add_op, int64_t mul_op, double identity,
                  int64_t *offsets, int64_t validate,
                  int64_t *out_cols, double *out_vals,
                  signed char *states, double *values, int64_t *touched,
                  uint64_t *bits);
int64_t hash_plain(const int64_t *a_indptr, const int64_t *a_indices,
                   const double *a_data, const int64_t *b_indptr,
                   const int64_t *b_indices, const double *b_data,
                   const int64_t *m_indptr, const int64_t *m_indices,
                   const int64_t *rows, int64_t nrows,
                   int64_t add_op, int64_t mul_op, double identity,
                   int64_t *offsets, int64_t validate,
                   int64_t *out_cols, double *out_vals,
                   int64_t *t_keys, signed char *t_state, double *t_vals);
int64_t hash_compl(const int64_t *a_indptr, const int64_t *a_indices,
                   const double *a_data, const int64_t *b_indptr,
                   const int64_t *b_indices, const double *b_data,
                   const int64_t *m_indptr, const int64_t *m_indices,
                   const int64_t *rows, int64_t nrows, const int64_t *nkeys,
                   int64_t add_op, int64_t mul_op, double identity,
                   int64_t *offsets, int64_t validate,
                   int64_t *out_cols, double *out_vals,
                   int64_t *t_keys, signed char *t_state, double *t_vals,
                   int64_t *touched);
void symbolic(const int64_t *a_indptr, const int64_t *a_indices,
              const int64_t *b_indptr, const int64_t *b_indices,
              const int64_t *m_indptr, const int64_t *m_indices,
              const int64_t *rows, int64_t nrows, int64_t complemented,
              int64_t *sizes, signed char *states, int64_t *touched);
"""

C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

typedef int64_t i64;

/* monoid fold step: acc = add(acc, x). Codes mirror repro.native.kernels.
 * min/max replicate np.minimum/np.maximum NaN propagation (return the NaN
 * operand; the first when both are NaN). */
static inline double op_add(i64 op, double acc, double x) {
    switch (op) {
    case 0:  return acc + x;
    case 1:  return (acc < x || isnan(acc)) ? acc : x;   /* np.minimum */
    default: return (acc > x || isnan(acc)) ? acc : x;   /* np.maximum */
    }
}

static inline double op_mul(i64 op, double a, double b) {
    switch (op) {
    case 0:  return a * b;
    case 1:  return 1.0;                                  /* pair */
    case 2:  return a;                                    /* first */
    case 3:  return b;                                    /* second */
    case 4:  return a + b;                                /* plus (min-plus) */
    default: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;   /* and */
    }
}

/* Fibonacci slot hash, same multiplier as repro.core.hash_kernel. */
static inline i64 hslot(i64 key, i64 cap_mask) {
    return (i64)((((uint64_t)key) * 0x9E3779B97F4A7C15ULL) >> 32) & cap_mask;
}

/* LF-0.25 power-of-two capacity, min 4 (repro.accumulators.table_capacity) */
static inline i64 pow2cap(i64 nkeys) {
    i64 cap = 4;
    i64 need = nkeys * 4;
    while (cap < need) cap <<= 1;
    return cap;
}

static int cmp_i64(const void *pa, const void *pb) {
    i64 a = *(const i64 *)pa, b = *(const i64 *)pb;
    return (a > b) - (a < b);
}

/* Bit length of x (0 for 0): the log factor of the complemented gather's
 * sort-or-scan cost test. */
static inline i64 bitlen(i64 x) {
    i64 n = 0;
    while (x) { n++; x >>= 1; }
    return n;
}

/* Plain mask, two states per column (ThreadedSparse.jl's
 * MaskedBitAccumulator): 1 = allowed in this row, 2 = hit, 3 = both. Allowed
 * columns start at the identity, so every flop folds and ORs in the 2 with
 * no branch, and the first hit is still add(identity, prod); only the
 * gather tells ALLOWED (1) from SET (3). A column hit while not allowed
 * keeps a stale 2 and a junk value that no gather reads: marking a later
 * row's mask columns assigns 1 and the identity again.
 *
 * Both MSA loops take restrict pointers: the arrays they write (outputs,
 * offsets, scratch) never overlap the operands, which are only read (A and
 * B may be one matrix). Without it every char store to `states` may alias
 * any operand, and the compiler cannot load the next flop's column and
 * value ahead of this flop's stores. */
i64 msa_plain(const i64 *restrict a_indptr, const i64 *restrict a_indices,
              const double *restrict a_data,
              const i64 *restrict b_indptr, const i64 *restrict b_indices,
              const double *restrict b_data,
              const i64 *restrict m_indptr, const i64 *restrict m_indices,
              const i64 *restrict rows, i64 nrows,
              i64 add_op, i64 mul_op, double identity,
              i64 *restrict offsets, i64 validate,
              i64 *restrict out_cols, double *restrict out_vals,
              signed char *restrict states, double *restrict values)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        for (i64 t = ms; t < me; ++t) {
            i64 c = m_indices[t];
            states[c] = 1;
            values[c] = identity;
        }
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            double av = a_data[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                values[j] = op_add(add_op, values[j],
                                   op_mul(mul_op, av, b_data[q]));
                states[j] |= 2;
            }
        }
        if (validate) {
            i64 n = 0;
            for (i64 t = ms; t < me; ++t)
                if (states[m_indices[t]] == 3) n++;
            if (n != offsets[r + 1] - offsets[r]) {
                for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 0;
                return r;
            }
        }
        i64 pos = offsets[r];
        for (i64 t = ms; t < me; ++t) {
            i64 c = m_indices[t];
            if (states[c] == 3) {
                out_cols[pos] = c;
                out_vals[pos] = values[c];
                pos++;
            }
            states[c] = 0;
        }
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

/* Complemented mask: 0 = untouched, 1 = banned, 2 = set; first hits are
 * appended to `touched`. The gather takes the touched word range [lo, hi].
 * A row with few columns over a wide range sorts its touched list; any
 * other row sets one bit per touched column in `bits` (one uint64 word per
 * 64 columns) and walks the range with count-trailing-zeros, which emits
 * the columns in sorted order and clears each word as it goes. */
i64 msa_compl(const i64 *restrict a_indptr, const i64 *restrict a_indices,
              const double *restrict a_data,
              const i64 *restrict b_indptr, const i64 *restrict b_indices,
              const double *restrict b_data,
              const i64 *restrict m_indptr, const i64 *restrict m_indices,
              const i64 *restrict rows, i64 nrows,
              i64 add_op, i64 mul_op, double identity,
              i64 *restrict offsets, i64 validate,
              i64 *restrict out_cols, double *restrict out_vals,
              signed char *restrict states, double *restrict values,
              i64 *restrict touched, uint64_t *restrict bits)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 1;
        i64 nt = 0;
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            double av = a_data[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                signed char st = states[j];
                if (st == 1) continue;
                double prod = op_mul(mul_op, av, b_data[q]);
                if (st == 0) {
                    values[j] = op_add(add_op, identity, prod);
                    states[j] = 2;
                    touched[nt++] = j;
                } else {
                    values[j] = op_add(add_op, values[j], prod);
                }
            }
        }
        if (validate && nt != offsets[r + 1] - offsets[r]) {
            for (i64 t = 0; t < nt; ++t) states[touched[t]] = 0;
            for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 0;
            return r;
        }
        i64 lo = INT64_MAX, hi = -1;
        for (i64 t = 0; t < nt; ++t) {
            i64 w = touched[t] >> 6;
            if (w < lo) lo = w;
            if (w > hi) hi = w;
        }
        i64 pos = offsets[r];
        if (nt > 0 && hi - lo + 1 > nt * bitlen(nt)) {
            qsort(touched, (size_t)nt, sizeof(i64), cmp_i64);
            for (i64 t = 0; t < nt; ++t) {
                i64 c = touched[t];
                out_cols[pos] = c;
                out_vals[pos] = values[c];
                pos++;
                states[c] = 0;
            }
        } else {
            for (i64 t = 0; t < nt; ++t)
                bits[touched[t] >> 6] |= 1ULL << (touched[t] & 63);
            for (i64 w = lo; w <= hi; ++w) {
                uint64_t word = bits[w];
                bits[w] = 0;
                while (word) {
                    i64 c = (w << 6) + __builtin_ctzll(word);
                    word &= word - 1;
                    out_cols[pos] = c;
                    out_vals[pos] = values[c];
                    pos++;
                    states[c] = 0;
                }
            }
        }
        for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 0;
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

i64 hash_plain(const i64 *a_indptr, const i64 *a_indices, const double *a_data,
               const i64 *b_indptr, const i64 *b_indices, const double *b_data,
               const i64 *m_indptr, const i64 *m_indices,
               const i64 *rows, i64 nrows,
               i64 add_op, i64 mul_op, double identity,
               i64 *offsets, i64 validate,
               i64 *out_cols, double *out_vals,
               i64 *t_keys, signed char *t_state, double *t_vals)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        i64 cap = pow2cap(me - ms), cm = cap - 1;
        for (i64 s = 0; s < cap; ++s) t_keys[s] = -1;
        for (i64 t = ms; t < me; ++t) {          /* insert allowed columns */
            i64 c = m_indices[t];
            i64 s = hslot(c, cm);
            while (t_keys[s] != -1 && t_keys[s] != c) s = (s + 1) & cm;
            if (t_keys[s] == -1) { t_keys[s] = c; t_state[s] = 1; }
        }
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            double av = a_data[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                i64 s = hslot(j, cm);
                while (t_keys[s] != -1 && t_keys[s] != j) s = (s + 1) & cm;
                if (t_keys[s] == -1) continue;    /* not in the mask */
                double prod = op_mul(mul_op, av, b_data[q]);
                if (t_state[s] == 1) {
                    t_vals[s] = op_add(add_op, identity, prod);
                    t_state[s] = 2;
                } else {
                    t_vals[s] = op_add(add_op, t_vals[s], prod);
                }
            }
        }
        i64 pos;
        if (validate) {
            i64 n = 0;
            for (i64 t = ms; t < me; ++t) {
                i64 c = m_indices[t];
                i64 s = hslot(c, cm);
                while (t_keys[s] != c) s = (s + 1) & cm;
                if (t_state[s] == 2) n++;
            }
            if (n != offsets[r + 1] - offsets[r]) return r;
        }
        pos = offsets[r];
        for (i64 t = ms; t < me; ++t) {           /* gather in mask order */
            i64 c = m_indices[t];
            i64 s = hslot(c, cm);
            while (t_keys[s] != c) s = (s + 1) & cm;
            if (t_state[s] == 2) {
                out_cols[pos] = c;
                out_vals[pos] = t_vals[s];
                pos++;
            }
        }
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

i64 hash_compl(const i64 *a_indptr, const i64 *a_indices, const double *a_data,
               const i64 *b_indptr, const i64 *b_indices, const double *b_data,
               const i64 *m_indptr, const i64 *m_indices,
               const i64 *rows, i64 nrows, const i64 *nkeys,
               i64 add_op, i64 mul_op, double identity,
               i64 *offsets, i64 validate,
               i64 *out_cols, double *out_vals,
               i64 *t_keys, signed char *t_state, double *t_vals,
               i64 *touched)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        i64 cap = pow2cap(nkeys[r]), cm = cap - 1;
        for (i64 s = 0; s < cap; ++s) t_keys[s] = -1;
        for (i64 t = ms; t < me; ++t) {           /* insert banned columns */
            i64 c = m_indices[t];
            i64 s = hslot(c, cm);
            while (t_keys[s] != -1 && t_keys[s] != c) s = (s + 1) & cm;
            if (t_keys[s] == -1) { t_keys[s] = c; t_state[s] = 1; }
        }
        i64 nt = 0;
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            double av = a_data[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                i64 s = hslot(j, cm);
                while (t_keys[s] != -1 && t_keys[s] != j) s = (s + 1) & cm;
                double prod;
                if (t_keys[s] == -1) {
                    prod = op_mul(mul_op, av, b_data[q]);
                    t_keys[s] = j;
                    t_state[s] = 2;
                    t_vals[s] = op_add(add_op, identity, prod);
                    touched[nt++] = j;
                } else if (t_state[s] == 2) {
                    prod = op_mul(mul_op, av, b_data[q]);
                    t_vals[s] = op_add(add_op, t_vals[s], prod);
                }                                  /* state 1: banned */
            }
        }
        if (validate && nt != offsets[r + 1] - offsets[r]) return r;
        qsort(touched, (size_t)nt, sizeof(i64), cmp_i64);
        i64 pos = offsets[r];
        for (i64 t = 0; t < nt; ++t) {
            i64 c = touched[t];
            i64 s = hslot(c, cm);
            while (t_keys[s] != c) s = (s + 1) & cm;
            out_cols[pos] = c;
            out_vals[pos] = t_vals[s];
            pos++;
        }
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

/* Pattern-only row sizes (the symbolic pass), one dense state array for
 * both polarities: mask columns are marked 1, and a column counts on its
 * first hit while still in the "fresh" state — 1 (allowed, untouched) for
 * plain masks, 0 (not banned, untouched) for complemented ones. */
void symbolic(const i64 *a_indptr, const i64 *a_indices,
              const i64 *b_indptr, const i64 *b_indices,
              const i64 *m_indptr, const i64 *m_indices,
              const i64 *rows, i64 nrows, i64 complemented,
              i64 *sizes, signed char *states, i64 *touched)
{
    signed char fresh = complemented ? 0 : 1;
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 1;
        i64 nt = 0;
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                if (states[j] == fresh) {
                    states[j] = 2;
                    touched[nt++] = j;
                }
            }
        }
        sizes[r] = nt;
        for (i64 t = 0; t < nt; ++t) states[touched[t]] = 0;
        for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 0;
    }
}
"""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(),
                        f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 'u'}")


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


_FFI = None
_LIB = None


def load():
    """Compile (once, content-addressed) and dlopen the kernel library.

    Raises on any failure — the probe in :mod:`repro.native` treats an
    exception as "the compiled tier is unavailable".
    """
    global _FFI, _LIB
    if _LIB is not None:
        return _LIB
    import cffi

    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    flags = ["-O3", "-fPIC", "-shared"]
    tag = hashlib.sha256(
        (C_SOURCE + "\x00" + cc + " ".join(flags)).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_native_{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, f"repro_native_{tag}.c")
        tmp_path = f"{so_path}.tmp.{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(C_SOURCE)
        subprocess.run([cc, *flags, "-o", tmp_path, src_path, "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp_path, so_path)  # atomic: concurrent builds race benignly
    ffi = cffi.FFI()
    ffi.cdef(C_DECLS)
    lib = ffi.dlopen(so_path)
    _FFI, _LIB = ffi, lib
    return lib


def _p(arr, ctype: str):
    return _FFI.cast(ctype, arr.ctypes.data)


def _i64(arr):
    return _p(arr, "int64_t *")


def _f64(arr):
    return _p(arr, "double *")


def _i8(arr):
    return _p(arr, "signed char *")


# --------------------------------------------------------------------- #
# backend protocol (numpy-array signatures, see repro.native.kernels)
# --------------------------------------------------------------------- #
def msa_plain(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
              m_indptr, m_indices, rows, add_op, mul_op, identity,
              offsets, validate, out_cols, out_vals, states, values) -> int:
    return int(load().msa_plain(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(b_indptr), _i64(b_indices), _f64(b_data),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size,
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i8(states), _f64(values)))


def msa_compl(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
              m_indptr, m_indices, rows, add_op, mul_op, identity,
              offsets, validate, out_cols, out_vals, states, values,
              touched, bits) -> int:
    return int(load().msa_compl(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(b_indptr), _i64(b_indices), _f64(b_data),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size,
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i8(states), _f64(values),
        _i64(touched), _p(bits, "uint64_t *")))


def hash_plain(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
               m_indptr, m_indices, rows, add_op, mul_op, identity,
               offsets, validate, out_cols, out_vals, t_keys, t_state,
               t_vals) -> int:
    return int(load().hash_plain(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(b_indptr), _i64(b_indices), _f64(b_data),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size,
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i64(t_keys), _i8(t_state),
        _f64(t_vals)))


def hash_compl(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
               m_indptr, m_indices, rows, nkeys, add_op, mul_op, identity,
               offsets, validate, out_cols, out_vals, t_keys, t_state,
               t_vals, touched) -> int:
    return int(load().hash_compl(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(b_indptr), _i64(b_indices), _f64(b_data),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size, _i64(nkeys),
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i64(t_keys), _i8(t_state),
        _f64(t_vals), _i64(touched)))


def symbolic(a_indptr, a_indices, b_indptr, b_indices, m_indptr, m_indices,
             rows, complemented, sizes, states, touched) -> None:
    load().symbolic(
        _i64(a_indptr), _i64(a_indices), _i64(b_indptr), _i64(b_indices),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size,
        complemented, _i64(sizes), _i8(states), _i64(touched))
