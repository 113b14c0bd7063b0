"""cffi/C backend for the compiled kernel tier.

The four inner loops of the native tier (see :mod:`repro.native`) — two
MSA numeric passes (plain and complemented masks), the pull direction of
the same product, and one pattern-only symbolic pass — are compiled once
from the embedded C source
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
* the op codes and identity come from the table in
  :mod:`repro.native.kernels`, keyed by monoid ufunc *and* identity, so
  each add code arrives with its canonical identity (plus 0.0, min +inf,
  max -inf, or 0.0); any other monoid delegates to the fused kernels;
* the MSA entry points switch once per call on the op pair: each of the
  seven standard semirings calls an always-inlined loop body with literal
  codes, so ``op_add``/``op_mul`` fold into one expression per flop, and
  any other compiled pairing calls the same body with the runtime codes.
  The source is built with ``-ffp-contract=off``, so a folded
  ``acc + a * b`` never becomes a fused multiply-add on targets that have
  one: numpy rounds the product before it adds;
* the MSA loops keep two states per column for plain masks (allowed and
  hit: the paper's ALLOWED and SET differ only at gather time, so allowed
  columns are preset to the identity and every flop folds without a
  branch), and untouched/banned/set for complemented masks, whose gather
  sorts the touched list for rows with few columns over a wide range and
  otherwise sets the touched columns in a bitset and walks it with
  count-trailing-zeros;
* a complemented *bitmap* mask (:meth:`repro.mask.Mask.from_bitmap`) is
  read in place: the flop loop skips a column whose byte is set in the
  row's bitmap, so no banned column is marked in the state array or
  cleared after it. The same inlined body runs both forms, selected by a
  literal flag inside each op-pair case;
* ``plus_pair`` over a plain mask needs no state at all: mask columns are
  preset to 0.0, each flop adds 1.0 to its column, and the gather keeps
  the mask columns whose count is above 0.0 — a hit counts at least 1.0,
  an allowed miss stays 0.0 — in mask order;
* the pull (``msa_pull``) computes entry (i, j) by folding row j of Bᵀ
  against A's row i, scattered into the scratch as values plus presence
  bytes, in ascending order: the stream order in which the push folds the
  same products into column j, so its bits are the push's. Its candidate
  columns are a plain mask row's entries or a complemented bitmap row's
  zero bytes, scanned eight bytes a word; ``plus_first`` and
  ``plus_pair`` fold without a branch (an absent entry adds +0.0);
* the symbolic pass writes, per row, the count of distinct columns the
  numeric pass would emit — the exact sizes of the fused ``symbolic_rows``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
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
                  const uint8_t *m_bitmap, int64_t ncols,
                  const int64_t *rows, int64_t nrows,
                  int64_t add_op, int64_t mul_op, double identity,
                  int64_t *offsets, int64_t validate,
                  int64_t *out_cols, double *out_vals,
                  signed char *states, double *values, int64_t *touched,
                  uint64_t *bits);
int64_t msa_pull(const int64_t *a_indptr, const int64_t *a_indices,
                 const double *a_data, const int64_t *bt_indptr,
                 const int64_t *bt_indices, const double *bt_data,
                 const int64_t *m_indptr, const int64_t *m_indices,
                 const uint8_t *m_bitmap, int64_t ncols,
                 const int64_t *rows, int64_t nrows,
                 int64_t add_op, int64_t mul_op, double identity,
                 int64_t *offsets, int64_t validate,
                 int64_t *out_cols, double *out_vals,
                 signed char *present, double *dense);
void symbolic(const int64_t *a_indptr, const int64_t *a_indices,
              const int64_t *b_indptr, const int64_t *b_indices,
              const int64_t *m_indptr, const int64_t *m_indices,
              const int64_t *rows, int64_t nrows, int64_t complemented,
              int64_t *sizes, signed char *states, int64_t *touched);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>
#include <string.h>

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
 * The scratch arrays (`states`, `values`, `touched`, `bits`) are reused
 * across calls, one set per thread (repro.native.kernels._Scratch). The
 * plain loops accept and leave stale states, so they get a `states` array
 * of their own; the complemented and symbolic loops need `states` and
 * `bits` all zero on entry and leave them zero, on every return path.
 *
 * Both MSA loops take restrict pointers: the arrays they write (outputs,
 * offsets, scratch) never overlap the operands, which are only read (A and
 * B may be one matrix). Without it every char store to `states` may alias
 * any operand, and the compiler cannot load the next flop's column and
 * value ahead of this flop's stores.
 *
 * The loop bodies are always inlined into their exported dispatchers
 * (msa_plain, msa_compl), which call them with literal op codes for each
 * standard semiring, so op_add/op_mul fold to one expression per flop. */
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#define OP_PAIR(add, mul) ((add) * 8 + (mul))

ALWAYS_INLINE i64 msa_plain_body(
    const i64 *restrict a_indptr, const i64 *restrict a_indices,
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

/* plus_pair over a plain mask: every flop adds 1.0 to its column's count,
 * with no state read or write. Mask columns are preset to
 * 0.0; a hit column counts at least 1.0 and an allowed miss stays 0.0, so
 * the gather keeps `values[c] > 0.0` — the bits the two-state loop emits
 * (0.0 + 1.0 + ... in stream order). Columns outside the mask count junk
 * that no gather reads (`values` was zeroed when allocated, so it never
 * holds uninitialised bits); a later row or call that allows them presets
 * 0.0 again. */
static i64 msa_plain_count(
    const i64 *restrict a_indptr, const i64 *restrict a_indices,
    const i64 *restrict b_indptr, const i64 *restrict b_indices,
    const i64 *restrict m_indptr, const i64 *restrict m_indices,
    const i64 *restrict rows, i64 nrows,
    i64 *restrict offsets, i64 validate,
    i64 *restrict out_cols, double *restrict out_vals,
    double *restrict values)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ms = m_indptr[i], me = m_indptr[i + 1];
        for (i64 t = ms; t < me; ++t) values[m_indices[t]] = 0.0;
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q)
                values[b_indices[q]] += 1.0;
        }
        if (validate) {
            i64 n = 0;
            for (i64 t = ms; t < me; ++t)
                if (values[m_indices[t]] > 0.0) n++;
            if (n != offsets[r + 1] - offsets[r]) return r;
        }
        i64 pos = offsets[r];
        for (i64 t = ms; t < me; ++t) {
            i64 c = m_indices[t];
            if (values[c] > 0.0) {
                out_cols[pos] = c;
                out_vals[pos] = values[c];
                pos++;
            }
        }
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

/* One dispatch per call: a case per op pair of the seven standard
 * semirings runs the body with literal codes, plus_pair the counter loop,
 * and any other pairing the body with the runtime codes. Add code 0 always
 * comes with identity 0.0 (repro.native.kernels keys the codes by monoid
 * identity), which the counter loop assumes. */
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
#define MSA_PLAIN(add, mul)                                                 \
    return msa_plain_body(a_indptr, a_indices, a_data, b_indptr, b_indices, \
                          b_data, m_indptr, m_indices, rows, nrows, add, mul, \
                          identity, offsets, validate, out_cols, out_vals,  \
                          states, values)
    switch (OP_PAIR(add_op, mul_op)) {
    case OP_PAIR(0, 0): MSA_PLAIN(0, 0);                  /* plus_times */
    case OP_PAIR(0, 1):                                   /* plus_pair */
        return msa_plain_count(a_indptr, a_indices, b_indptr, b_indices,
                               m_indptr, m_indices, rows, nrows,
                               offsets, validate, out_cols, out_vals, values);
    case OP_PAIR(0, 2): MSA_PLAIN(0, 2);                  /* plus_first */
    case OP_PAIR(0, 3): MSA_PLAIN(0, 3);                  /* plus_second */
    case OP_PAIR(1, 4): MSA_PLAIN(1, 4);                  /* min_plus */
    case OP_PAIR(2, 0): MSA_PLAIN(2, 0);                  /* max_times */
    case OP_PAIR(2, 5): MSA_PLAIN(2, 5);                  /* or_and */
    default:            MSA_PLAIN(add_op, mul_op);
    }
#undef MSA_PLAIN
}

/* Complemented mask: 0 = untouched, 1 = banned, 2 = set; first hits are
 * appended to `touched`. A CSR mask marks its banned columns 1 before the
 * flop loop and clears them after; a bitmap mask (from_bitmap, a literal
 * flag like the op codes) is never marked: the flop loop reads the row's
 * bytes in place, `ncols` apart, and states only ever hold 0 or 2. The
 * gather takes the touched word range [lo, hi].
 * A row with few columns over a wide range sorts its touched list; any
 * other row sets one bit per touched column in `bits` (one uint64 word per
 * 64 columns) and walks the range with count-trailing-zeros, which emits
 * the columns in sorted order and clears each word as it goes. */
ALWAYS_INLINE i64 msa_compl_body(
    const i64 *restrict a_indptr, const i64 *restrict a_indices,
    const double *restrict a_data,
    const i64 *restrict b_indptr, const i64 *restrict b_indices,
    const double *restrict b_data,
    const i64 *restrict m_indptr, const i64 *restrict m_indices,
    const uint8_t *restrict m_bitmap, i64 ncols, int from_bitmap,
    const i64 *restrict rows, i64 nrows,
    i64 add_op, i64 mul_op, double identity,
    i64 *restrict offsets, i64 validate,
    i64 *restrict out_cols, double *restrict out_vals,
    signed char *restrict states, double *restrict values,
    i64 *restrict touched, uint64_t *restrict bits)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        /* a bitmap row has no CSR range: the mark and clear loops are empty */
        const uint8_t *restrict banned = from_bitmap ? m_bitmap + i * ncols : 0;
        i64 ms = from_bitmap ? 0 : m_indptr[i];
        i64 me = from_bitmap ? 0 : m_indptr[i + 1];
        for (i64 t = ms; t < me; ++t) states[m_indices[t]] = 1;
        i64 nt = 0;
        for (i64 p = a_indptr[i]; p < a_indptr[i + 1]; ++p) {
            i64 k = a_indices[p];
            double av = a_data[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; ++q) {
                i64 j = b_indices[q];
                signed char st = states[j];
                if (from_bitmap ? banned[j] : st == 1) continue;
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

/* Same dispatch as msa_plain, without the counter loop: a banned column
 * must not count, so the flop loop reads its state (or its bitmap byte)
 * either way. Each op pair runs the bitmap body when m_bitmap is set and
 * the CSR body otherwise; m_indptr and m_indices may then be NULL. */
i64 msa_compl(const i64 *restrict a_indptr, const i64 *restrict a_indices,
              const double *restrict a_data,
              const i64 *restrict b_indptr, const i64 *restrict b_indices,
              const double *restrict b_data,
              const i64 *restrict m_indptr, const i64 *restrict m_indices,
              const uint8_t *restrict m_bitmap, i64 ncols,
              const i64 *restrict rows, i64 nrows,
              i64 add_op, i64 mul_op, double identity,
              i64 *restrict offsets, i64 validate,
              i64 *restrict out_cols, double *restrict out_vals,
              signed char *restrict states, double *restrict values,
              i64 *restrict touched, uint64_t *restrict bits)
{
#define MSA_COMPL_BODY(add, mul, from_bitmap)                               \
    msa_compl_body(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, \
                   m_indptr, m_indices, m_bitmap, ncols, from_bitmap, rows,  \
                   nrows, add, mul, identity, offsets, validate, out_cols,   \
                   out_vals, states, values, touched, bits)
#define MSA_COMPL(add, mul)                                                 \
    return m_bitmap ? MSA_COMPL_BODY(add, mul, 1)                          \
                    : MSA_COMPL_BODY(add, mul, 0)
    switch (OP_PAIR(add_op, mul_op)) {
    case OP_PAIR(0, 0): MSA_COMPL(0, 0);                  /* plus_times */
    case OP_PAIR(0, 1): MSA_COMPL(0, 1);                  /* plus_pair */
    case OP_PAIR(0, 2): MSA_COMPL(0, 2);                  /* plus_first */
    case OP_PAIR(0, 3): MSA_COMPL(0, 3);                  /* plus_second */
    case OP_PAIR(1, 4): MSA_COMPL(1, 4);                  /* min_plus */
    case OP_PAIR(2, 0): MSA_COMPL(2, 0);                  /* max_times */
    case OP_PAIR(2, 5): MSA_COMPL(2, 5);                  /* or_and */
    default:            MSA_COMPL(add_op, mul_op);
    }
#undef MSA_COMPL
#undef MSA_COMPL_BODY
}

/* Pull (the paper's §4.1 Inner direction, one output row at a time):
 * C(i, j) folds mul(A(i, u), B(u, j)) over the entries u of row j of Bᵀ
 * that A's row i holds, in ascending u. That is the order in which the
 * push loops fold the same products into column j (A's row by k
 * ascending), so the bits match. A's row is scattered into `dense`
 * (values) and `present` (bytes) first; an empty A row emits nothing and
 * reads no candidate. The candidate columns j are the zero bytes of a
 * complemented bitmap row, scanned eight bytes a word, or the entries of
 * a plain CSR mask row; both ascend, so the output row comes out sorted.
 * `present` is zero on entry and left zero on every return path; `dense`
 * keeps stale values outside A's row, which no fold reads unmasked.
 *
 * plus_first and plus_pair fold without a branch: an absent u adds +0.0
 * (its stale value ANDed away by its zero presence byte) and ORs nothing
 * into the hit flag. The sum starts at +0.0 and never becomes -0.0 (x + y
 * is -0.0 only when both are), so adding +0.0 leaves its bits as they
 * are, inf and NaN included. The other op pairs test the presence byte. */
static inline double keep_if(double v, signed char present) {
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits &= (uint64_t)0 - (uint64_t)(unsigned char)present;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* The top bit of every zero byte of w, and no other bit: exact for any
 * byte values (no borrow runs between bytes). */
static inline uint64_t zero_bytes(uint64_t w) {
    const uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    return ~(((w & low7) + low7) | w | low7);
}

/* Eight bitmap bytes as one word whose byte b holds column j0 + b. */
static inline uint64_t load_bytes(const uint8_t *p) {
    uint64_t w;
    memcpy(&w, p, sizeof w);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

ALWAYS_INLINE int pull_dot(
    const i64 *restrict bt_indptr, const i64 *restrict bt_indices,
    const double *restrict bt_data, i64 j,
    i64 add_op, i64 mul_op, double identity,
    const signed char *restrict present, const double *restrict dense,
    double *restrict out)
{
    double acc = identity;
    int hit = 0;
    i64 qs = bt_indptr[j], qe = bt_indptr[j + 1];
    if (add_op == 0 && (mul_op == 1 || mul_op == 2)) {
        for (i64 q = qs; q < qe; ++q) {
            i64 u = bt_indices[q];
            acc += keep_if(dense[u], present[u]);
            hit |= present[u];
        }
    } else {
        for (i64 q = qs; q < qe; ++q) {
            i64 u = bt_indices[q];
            if (present[u]) {
                acc = op_add(add_op, acc,
                             op_mul(mul_op, dense[u], bt_data[q]));
                hit = 1;
            }
        }
    }
    *out = acc;
    return hit;
}

ALWAYS_INLINE i64 msa_pull_body(
    const i64 *restrict a_indptr, const i64 *restrict a_indices,
    const double *restrict a_data,
    const i64 *restrict bt_indptr, const i64 *restrict bt_indices,
    const double *restrict bt_data,
    const i64 *restrict m_indptr, const i64 *restrict m_indices,
    const uint8_t *restrict m_bitmap, i64 ncols, int from_bitmap,
    const i64 *restrict rows, i64 nrows,
    i64 add_op, i64 mul_op, double identity,
    i64 *restrict offsets, i64 validate,
    i64 *restrict out_cols, double *restrict out_vals,
    signed char *restrict present, double *restrict dense)
{
    for (i64 r = 0; r < nrows; ++r) {
        i64 i = rows[r];
        i64 ps = a_indptr[i], pe = a_indptr[i + 1];
        i64 pos = offsets[r];
        /* the direct-write face checks each emit against the planned end,
         * so a stale plan stops before it writes past its row */
        i64 end = validate ? offsets[r + 1] : INT64_MAX;
        int bad = 0;
        for (i64 p = ps; p < pe; ++p) {
            i64 k = a_indices[p];
            dense[k] = mul_op == 1 ? 1.0 : a_data[p];
            present[k] = 1;
        }
#define PULL_EMIT(col)                                                      \
        do {                                                                \
            i64 j_ = (col);                                                 \
            double acc_;                                                    \
            if (pull_dot(bt_indptr, bt_indices, bt_data, j_, add_op, mul_op, \
                         identity, present, dense, &acc_)) {                \
                if (pos == end) { bad = 1; goto row_done; }                 \
                out_cols[pos] = j_;                                         \
                out_vals[pos] = acc_;                                       \
                pos++;                                                      \
            }                                                               \
        } while (0)
        if (ps < pe) {
            if (from_bitmap) {
                const uint8_t *restrict banned = m_bitmap + i * ncols;
                i64 j0 = 0;
                for (; j0 + 8 <= ncols; j0 += 8) {
                    uint64_t z = zero_bytes(load_bytes(banned + j0));
                    while (z) {
                        i64 j = j0 + (__builtin_ctzll(z) >> 3);
                        z &= z - 1;
                        PULL_EMIT(j);
                    }
                }
                for (; j0 < ncols; ++j0)
                    if (!banned[j0]) PULL_EMIT(j0);
            } else {
                for (i64 t = m_indptr[i]; t < m_indptr[i + 1]; ++t)
                    PULL_EMIT(m_indices[t]);
            }
        }
#undef PULL_EMIT
    row_done:
        for (i64 p = ps; p < pe; ++p) present[a_indices[p]] = 0;
        if (bad || (validate && pos != end)) return r;
        if (!validate) offsets[r + 1] = pos;
    }
    return -1;
}

/* The MSA dispatch over the pull body: a complemented bitmap mask
 * (m_bitmap set, m_indptr and m_indices NULL) or a plain CSR mask
 * (m_bitmap NULL). bt_* is B's transpose, so row j of it lists the rows
 * of B that hold column j. `present` and `dense` are indexed by A's
 * columns (B's rows). */
i64 msa_pull(const i64 *restrict a_indptr, const i64 *restrict a_indices,
             const double *restrict a_data,
             const i64 *restrict bt_indptr, const i64 *restrict bt_indices,
             const double *restrict bt_data,
             const i64 *restrict m_indptr, const i64 *restrict m_indices,
             const uint8_t *restrict m_bitmap, i64 ncols,
             const i64 *restrict rows, i64 nrows,
             i64 add_op, i64 mul_op, double identity,
             i64 *restrict offsets, i64 validate,
             i64 *restrict out_cols, double *restrict out_vals,
             signed char *restrict present, double *restrict dense)
{
#define MSA_PULL_BODY(add, mul, from_bitmap)                                \
    msa_pull_body(a_indptr, a_indices, a_data, bt_indptr, bt_indices,      \
                  bt_data, m_indptr, m_indices, m_bitmap, ncols,            \
                  from_bitmap, rows, nrows, add, mul, identity, offsets,    \
                  validate, out_cols, out_vals, present, dense)
#define MSA_PULL(add, mul)                                                  \
    return m_bitmap ? MSA_PULL_BODY(add, mul, 1)                           \
                    : MSA_PULL_BODY(add, mul, 0)
    switch (OP_PAIR(add_op, mul_op)) {
    case OP_PAIR(0, 0): MSA_PULL(0, 0);                   /* plus_times */
    case OP_PAIR(0, 1): MSA_PULL(0, 1);                   /* plus_pair */
    case OP_PAIR(0, 2): MSA_PULL(0, 2);                   /* plus_first */
    case OP_PAIR(0, 3): MSA_PULL(0, 3);                   /* plus_second */
    case OP_PAIR(1, 4): MSA_PULL(1, 4);                   /* min_plus */
    case OP_PAIR(2, 0): MSA_PULL(2, 0);                   /* max_times */
    case OP_PAIR(2, 5): MSA_PULL(2, 5);                   /* or_and */
    default:            MSA_PULL(add_op, mul_op);
    }
#undef MSA_PULL
#undef MSA_PULL_BODY
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
    # -falign-loops=32 starts every loop on a 32-byte boundary, so a loop's
    # speed does not hang on where the code before it happens to end:
    # without it, deleting unrelated functions from this file made the
    # plus_pair counter loop 22% slower on a Xeon (and the flag restored it)
    flags = ["-O3", "-ffp-contract=off", "-falign-loops=32", "-fPIC",
             "-shared"]
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
    """Pointer to ``arr``'s data; raises ValueError on a non-C-contiguous
    array, whose strides the C loops would not follow."""
    return _FFI.NULL if arr is None else _FFI.from_buffer(ctype, arr)


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
              m_indptr, m_indices, m_bitmap, rows, add_op, mul_op, identity,
              offsets, validate, out_cols, out_vals, states, values,
              touched, bits) -> int:
    """``m_bitmap`` is a bitmap mask's bool array (then ``m_indptr`` and
    ``m_indices`` are None), or None for a CSR mask."""
    return int(load().msa_compl(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(b_indptr), _i64(b_indices), _f64(b_data),
        _i64(m_indptr), _i64(m_indices), _p(m_bitmap, "uint8_t *"),
        0 if m_bitmap is None else m_bitmap.shape[1], _i64(rows), rows.size,
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i8(states), _f64(values),
        _i64(touched), _p(bits, "uint64_t *")))


def msa_pull(a_indptr, a_indices, a_data, bt_indptr, bt_indices, bt_data,
             m_indptr, m_indices, m_bitmap, rows, add_op, mul_op, identity,
             offsets, validate, out_cols, out_vals, present, dense) -> int:
    """``bt_*`` are B's transpose; ``m_bitmap`` is a complemented bitmap
    mask's bool array (then ``m_indptr`` and ``m_indices`` are None), or
    None for a plain CSR mask."""
    return int(load().msa_pull(
        _i64(a_indptr), _i64(a_indices), _f64(a_data),
        _i64(bt_indptr), _i64(bt_indices), _f64(bt_data),
        _i64(m_indptr), _i64(m_indices), _p(m_bitmap, "uint8_t *"),
        0 if m_bitmap is None else m_bitmap.shape[1], _i64(rows), rows.size,
        add_op, mul_op, identity, _i64(offsets), validate,
        _i64(out_cols), _f64(out_vals), _i8(present), _f64(dense)))


def symbolic(a_indptr, a_indices, b_indptr, b_indices, m_indptr, m_indices,
             rows, complemented, sizes, states, touched) -> None:
    load().symbolic(
        _i64(a_indptr), _i64(a_indices), _i64(b_indptr), _i64(b_indices),
        _i64(m_indptr), _i64(m_indices), _i64(rows), rows.size,
        complemented, _i64(sizes), _i8(states), _i64(touched))
