"""numba backend for the compiled kernel tier.

The preferred half of the native ladder (see :mod:`repro.native`): when
numba is importable, the five inner loops (four numeric passes and the
pattern-only symbolic pass) are JIT-compiled with
``nopython=True, nogil=True, cache=True`` — nopython so nothing falls back
to object mode, nogil so the thread backend in
:mod:`repro.parallel.runner` gets real parallelism from a plain thread
pool, cache so the compilation cost is paid once per machine (the probe in
:mod:`repro.native` runs a tiny product through every entry point, which
both validates the toolchain and forces compilation off the request path).

Importing this module raises ``ImportError`` when numba is absent; the
probe ladder treats that as "backend unavailable" and falls through to the
cffi/C backend. The loop bodies are a line-for-line mirror of the C source
in :mod:`repro.native.cffi_backend` — see that module's docstring for the
bit-identity contract (identity-init + stream-order accumulation,
numpy-faithful min/max NaN handling, mask-order vs sorted-complement
gathers) and for the accumulator layout: two states per column for plain
masks, a bitset gather walked with count-trailing-zeros for complemented
ones. The count-trailing-zeros is numba's ``trailing_zeros`` intrinsic
(LLVM ``cttz``), which compiles in nopython mode; the bitset words are
``uint64``, so every constant mixed into them is cast to ``np.uint64``
(numba widens ``uint64`` ⊕ ``int64`` to ``float64``).
"""

from __future__ import annotations

import numpy as np
from numba import jit
from numba.cpython.unsafe.numbers import trailing_zeros

_JIT = dict(nopython=True, nogil=True, cache=True)
_I64_MAX = np.iinfo(np.int64).max


@jit(**_JIT)
def _op_add(op, acc, x):
    if op == 0:
        return acc + x
    if op == 1:                       # np.minimum: NaN operand wins
        return acc if (acc < x or acc != acc) else x
    return acc if (acc > x or acc != acc) else x   # np.maximum


@jit(**_JIT)
def _op_mul(op, a, b):
    if op == 0:
        return a * b
    if op == 1:                       # pair
        return 1.0
    if op == 2:                       # first
        return a
    if op == 3:                       # second
        return b
    if op == 4:                       # plus (min-plus)
        return a + b
    return 1.0 if (a != 0.0 and b != 0.0) else 0.0   # and


@jit(**_JIT)
def _hslot(key, cap_mask):
    return np.int64((np.uint64(key) * np.uint64(0x9E3779B97F4A7C15))
                    >> np.uint64(32)) & cap_mask


@jit(**_JIT)
def _pow2cap(nkeys):
    cap = np.int64(4)
    need = nkeys * 4
    while cap < need:
        cap <<= 1
    return cap


@jit(**_JIT)
def _bitlen(x):
    n = 0
    while x:
        n += 1
        x >>= 1
    return n


@jit(**_JIT)
def msa_plain(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
              m_indptr, m_indices, rows, add_op, mul_op, identity,
              offsets, validate, out_cols, out_vals, states, values):
    for r in range(rows.size):
        i = rows[r]
        ms, me = m_indptr[i], m_indptr[i + 1]
        for t in range(ms, me):
            c = m_indices[t]
            states[c] = 1
            values[c] = identity
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            av = a_data[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[q]
                values[j] = _op_add(add_op, values[j],
                                    _op_mul(mul_op, av, b_data[q]))
                states[j] |= 2
        if validate:
            n = 0
            for t in range(ms, me):
                if states[m_indices[t]] == 3:
                    n += 1
            if n != offsets[r + 1] - offsets[r]:
                for t in range(ms, me):
                    states[m_indices[t]] = 0
                return r
        pos = offsets[r]
        for t in range(ms, me):
            c = m_indices[t]
            if states[c] == 3:
                out_cols[pos] = c
                out_vals[pos] = values[c]
                pos += 1
            states[c] = 0
        if not validate:
            offsets[r + 1] = pos
    return -1


@jit(**_JIT)
def msa_compl(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
              m_indptr, m_indices, rows, add_op, mul_op, identity,
              offsets, validate, out_cols, out_vals, states, values,
              touched, bits):
    one, zero = np.uint64(1), np.uint64(0)
    for r in range(rows.size):
        i = rows[r]
        ms, me = m_indptr[i], m_indptr[i + 1]
        for t in range(ms, me):
            states[m_indices[t]] = 1
        nt = 0
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            av = a_data[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[q]
                st = states[j]
                if st == 1:
                    continue
                prod = _op_mul(mul_op, av, b_data[q])
                if st == 0:
                    values[j] = _op_add(add_op, identity, prod)
                    states[j] = 2
                    touched[nt] = j
                    nt += 1
                else:
                    values[j] = _op_add(add_op, values[j], prod)
        if validate and nt != offsets[r + 1] - offsets[r]:
            for t in range(nt):
                states[touched[t]] = 0
            for t in range(ms, me):
                states[m_indices[t]] = 0
            return r
        lo, hi = _I64_MAX, -1
        for t in range(nt):
            w = touched[t] >> 6
            if w < lo:
                lo = w
            if w > hi:
                hi = w
        pos = offsets[r]
        if nt > 0 and hi - lo + 1 > nt * _bitlen(nt):
            touched[:nt].sort()
            for t in range(nt):
                c = touched[t]
                out_cols[pos] = c
                out_vals[pos] = values[c]
                pos += 1
                states[c] = 0
        else:
            for t in range(nt):
                bits[touched[t] >> 6] |= one << np.uint64(touched[t] & 63)
            for w in range(lo, hi + 1):
                word = bits[w]
                bits[w] = zero
                while word != zero:
                    c = (w << 6) + np.int64(trailing_zeros(word))
                    word &= word - one
                    out_cols[pos] = c
                    out_vals[pos] = values[c]
                    pos += 1
                    states[c] = 0
        for t in range(ms, me):
            states[m_indices[t]] = 0
        if not validate:
            offsets[r + 1] = pos
    return -1


@jit(**_JIT)
def hash_plain(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
               m_indptr, m_indices, rows, add_op, mul_op, identity,
               offsets, validate, out_cols, out_vals, t_keys, t_state,
               t_vals):
    for r in range(rows.size):
        i = rows[r]
        ms, me = m_indptr[i], m_indptr[i + 1]
        cap = _pow2cap(me - ms)
        cm = cap - 1
        for s in range(cap):
            t_keys[s] = -1
        for t in range(ms, me):
            c = m_indices[t]
            s = _hslot(c, cm)
            while t_keys[s] != -1 and t_keys[s] != c:
                s = (s + 1) & cm
            if t_keys[s] == -1:
                t_keys[s] = c
                t_state[s] = 1
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            av = a_data[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[q]
                s = _hslot(j, cm)
                while t_keys[s] != -1 and t_keys[s] != j:
                    s = (s + 1) & cm
                if t_keys[s] == -1:
                    continue
                prod = _op_mul(mul_op, av, b_data[q])
                if t_state[s] == 1:
                    t_vals[s] = _op_add(add_op, identity, prod)
                    t_state[s] = 2
                else:
                    t_vals[s] = _op_add(add_op, t_vals[s], prod)
        if validate:
            n = 0
            for t in range(ms, me):
                c = m_indices[t]
                s = _hslot(c, cm)
                while t_keys[s] != c:
                    s = (s + 1) & cm
                if t_state[s] == 2:
                    n += 1
            if n != offsets[r + 1] - offsets[r]:
                return r
        pos = offsets[r]
        for t in range(ms, me):
            c = m_indices[t]
            s = _hslot(c, cm)
            while t_keys[s] != c:
                s = (s + 1) & cm
            if t_state[s] == 2:
                out_cols[pos] = c
                out_vals[pos] = t_vals[s]
                pos += 1
        if not validate:
            offsets[r + 1] = pos
    return -1


@jit(**_JIT)
def hash_compl(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data,
               m_indptr, m_indices, rows, nkeys, add_op, mul_op, identity,
               offsets, validate, out_cols, out_vals, t_keys, t_state,
               t_vals, touched):
    for r in range(rows.size):
        i = rows[r]
        ms, me = m_indptr[i], m_indptr[i + 1]
        cap = _pow2cap(nkeys[r])
        cm = cap - 1
        for s in range(cap):
            t_keys[s] = -1
        for t in range(ms, me):
            c = m_indices[t]
            s = _hslot(c, cm)
            while t_keys[s] != -1 and t_keys[s] != c:
                s = (s + 1) & cm
            if t_keys[s] == -1:
                t_keys[s] = c
                t_state[s] = 1
        nt = 0
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            av = a_data[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[q]
                s = _hslot(j, cm)
                while t_keys[s] != -1 and t_keys[s] != j:
                    s = (s + 1) & cm
                if t_keys[s] == -1:
                    prod = _op_mul(mul_op, av, b_data[q])
                    t_keys[s] = j
                    t_state[s] = 2
                    t_vals[s] = _op_add(add_op, identity, prod)
                    touched[nt] = j
                    nt += 1
                elif t_state[s] == 2:
                    prod = _op_mul(mul_op, av, b_data[q])
                    t_vals[s] = _op_add(add_op, t_vals[s], prod)
        if validate and nt != offsets[r + 1] - offsets[r]:
            return r
        touched[:nt].sort()
        pos = offsets[r]
        for t in range(nt):
            c = touched[t]
            s = _hslot(c, cm)
            while t_keys[s] != c:
                s = (s + 1) & cm
            out_cols[pos] = c
            out_vals[pos] = t_vals[s]
            pos += 1
        if not validate:
            offsets[r + 1] = pos
    return -1


@jit(**_JIT)
def symbolic(a_indptr, a_indices, b_indptr, b_indices, m_indptr, m_indices,
             rows, complemented, sizes, states, touched):
    fresh = 0 if complemented else 1
    for r in range(rows.size):
        i = rows[r]
        ms, me = m_indptr[i], m_indptr[i + 1]
        for t in range(ms, me):
            states[m_indices[t]] = 1
        nt = 0
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                j = b_indices[q]
                if states[j] == fresh:
                    states[j] = 2
                    touched[nt] = j
                    nt += 1
        sizes[r] = nt
        for t in range(nt):
            states[touched[t]] = 0
        for t in range(ms, me):
            states[m_indices[t]] = 0
