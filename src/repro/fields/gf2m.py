"""Binary extension fields GF(2^m) via log/antilog tables.

This is the symbol alphabet of the Reed–Solomon outer code inside the
Justesen-like concatenated code (Lemma 2.1 substitute).  Elements are
integers in ``[0, 2^m)`` interpreted as polynomials over GF(2) modulo a fixed
primitive polynomial; addition is XOR and multiplication goes through
discrete-log tables, all vectorised over numpy ``int64`` arrays.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

import numpy as np

from repro.obs import tracing

#: default contraction-block target for :meth:`GF2m.matmul`, in elements of
#: the 3-d log-sum intermediate.  The best value is cache-geometry dependent;
#: ``repro bench`` probes a few candidates and records the winner, and the
#: ``REPRO_GF2M_BLOCK`` environment variable overrides it at run time.
_MATMUL_BLOCK_TARGET = 1 << 21


def matmul_block_target() -> int:
    """Resolve the matmul blocking target, honouring ``REPRO_GF2M_BLOCK``."""
    env = os.environ.get("REPRO_GF2M_BLOCK")
    if not env:
        return _MATMUL_BLOCK_TARGET
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_GF2M_BLOCK must be a positive integer, got {env!r}")
    if value <= 0:
        raise ValueError(
            f"REPRO_GF2M_BLOCK must be a positive integer, got {env!r}")
    return value

# Primitive polynomials (including the x^m term) for the field sizes we use.
_PRIMITIVE_POLY: Dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class GF2m:
    """The field GF(2^m), 2 <= m <= 16."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLY:
            raise ValueError(f"unsupported extension degree m={m}")
        self.m = m
        self.order = 1 << m
        self._poly = _PRIMITIVE_POLY[m]
        size = self.order - 1
        # antilog table by doubling: exp[f + i] = exp[f] * exp[i], where the
        # multiply-by-constant is a vectorised carry-less product + modular
        # reduction — O(m^2 log(2^m)) vector ops instead of 2^m scalar steps
        exp = np.zeros(2 * size, dtype=np.int64)
        exp[0] = 1
        filled = 1
        while filled < size:
            # exp[filled] = exp[filled - 1] * x, one scalar LFSR step
            x = int(exp[filled - 1]) << 1
            if x & self.order:
                x ^= self._poly
            exp[filled] = x
            take = min(filled, size - filled - 1)
            if take > 0:
                exp[filled + 1:filled + 1 + take] = self._mul_by_constant(
                    exp[1:1 + take], x)
            filled += 1 + take
        log = np.zeros(self.order, dtype=np.int64)
        log[exp[:size]] = np.arange(size, dtype=np.int64)
        exp[size:2 * size] = exp[:size]
        self._exp = exp
        self._log = log
        self.generator = int(exp[1]) if m > 1 else 1

    def _mul_by_constant(self, vec: np.ndarray, c: int) -> np.ndarray:
        """Vectorised field multiply of ``vec`` by the constant ``c``:
        carry-less product (shift/XOR per set bit of ``c``) followed by
        reduction modulo the primitive polynomial.  Used only during table
        construction — everything afterwards goes through the tables."""
        out = np.zeros_like(vec)
        for bit in range(self.m):
            if (c >> bit) & 1:
                out ^= vec << bit
        for b in range(2 * self.m - 2, self.m - 1, -1):
            mask = (out >> b) & 1
            out ^= mask * (self._poly << (b - self.m))
        return out

    # -- arithmetic ---------------------------------------------------------
    def add(self, a, b):
        return np.bitwise_xor(np.asarray(a, dtype=np.int64),
                              np.asarray(b, dtype=np.int64))

    sub = add  # characteristic 2

    def mul(self, a, b):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
        out = np.zeros(a_arr.shape, dtype=np.int64)
        nz = (a_arr != 0) & (b_arr != 0)
        if np.any(nz):
            logs = self._log[a_arr[nz]] + self._log[b_arr[nz]]
            out[nz] = self._exp[logs]
        return out if out.ndim else np.int64(out)

    def inv(self, a):
        arr = np.asarray(a, dtype=np.int64)
        if np.any(arr == 0):
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        size = self.order - 1
        logs = (size - self._log[arr]) % size
        result = self._exp[logs]
        return result if result.ndim else np.int64(result)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def div_where(self, a, b):
        """Elementwise ``a / b`` with zero divisors mapped to 0 instead of
        raising — the masked form the batched decoder kernels need (rows
        whose denominator vanishes are flagged separately, the quotient at
        those positions is never used)."""
        b_arr = np.asarray(b, dtype=np.int64)
        safe = np.where(b_arr == 0, 1, b_arr)
        out = self.mul(a, self.inv(safe))
        return np.where(b_arr == 0, 0, out)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^m): C[i, j] = XOR_k a[i, k] * b[k, j].

        Vectorised through the log/antilog tables; used by the batched
        Reed–Solomon encoder/syndrome kernels on the routing hot path.  The
        contraction axis is processed in blocks so the 3-d intermediate stays
        cache-sized at any batch size.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        with tracing.span("gf2m.matmul"):
            tracing.count("gf2m.matmul_ops",
                          a.shape[0] * a.shape[1] * b.shape[1])
            out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
            contraction = a.shape[1]
            block = max(1, matmul_block_target() // max(1, out.size))
            for k0 in range(0, contraction, block):
                a_blk = a[:, k0:k0 + block]
                b_blk = b[k0:k0 + block, :]
                logs = (self._log[a_blk][:, :, None]
                        + self._log[b_blk][None, :, :])
                prod = self._exp[logs]
                prod *= (a_blk != 0)[:, :, None] & (b_blk != 0)[None, :, :]
                out ^= np.bitwise_xor.reduce(prod, axis=1)
            return out

    def pow_alpha(self, e: int) -> int:
        """alpha**e for the primitive element alpha."""
        return int(self._exp[e % (self.order - 1)])

    def pow_alpha_many(self, exponents) -> np.ndarray:
        """Vectorised :meth:`pow_alpha` over an exponent array."""
        e = np.asarray(exponents, dtype=np.int64) % (self.order - 1)
        return self._exp[e]

    def pow(self, a, e: int):
        a = int(a)
        if a == 0:
            if e == 0:
                return 1
            return 0
        log = int(self._log[a]) * int(e) % (self.order - 1)
        return int(self._exp[log])

    # -- polynomials (coefficient vectors, low-to-high degree) -------------
    def poly_eval(self, coeffs: Sequence[int], xs) -> np.ndarray:
        xs_arr = np.asarray(xs, dtype=np.int64)
        result = np.zeros_like(xs_arr)
        for c in reversed(list(coeffs)):
            result = self.add(self.mul(result, xs_arr), int(c))
        return result

    def poly_mul(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
        for i, coeff in enumerate(a):
            if coeff:
                out[i:i + len(b)] = self.add(out[i:i + len(b)],
                                             self.mul(int(coeff), b))
        return out

    def poly_mod(self, a: Sequence[int], mod: Sequence[int]) -> np.ndarray:
        """Remainder of ``a`` divided by ``mod`` (mod must be monic-ish:
        nonzero leading coefficient)."""
        a = np.asarray(a, dtype=np.int64).copy()
        mod = np.asarray(mod, dtype=np.int64)
        d_mod = len(mod) - 1
        lead_inv = self.inv(int(mod[-1]))
        for i in range(len(a) - 1, d_mod - 1, -1):
            coeff = a[i]
            if coeff:
                factor = self.mul(int(coeff), int(lead_inv))
                a[i - d_mod:i + 1] = self.add(
                    a[i - d_mod:i + 1], self.mul(int(factor), mod))
        return a[:d_mod] if d_mod > 0 else np.zeros(0, dtype=np.int64)

    def poly_from_roots(self, roots: Sequence[int]) -> np.ndarray:
        out = np.array([1], dtype=np.int64)
        for r in roots:
            # multiply by the linear factor (x + r): shift plus a vectorised
            # scale — two array ops per root instead of a coefficient loop
            nxt = np.zeros(out.size + 1, dtype=np.int64)
            nxt[1:] = out
            nxt[:-1] ^= self.mul(out, int(r))
            out = nxt
        return out

    def poly_deriv(self, coeffs: Sequence[int]) -> np.ndarray:
        """Formal derivative in characteristic 2: odd-degree terms survive."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if len(coeffs) <= 1:
            return np.zeros(1, dtype=np.int64)
        deriv = coeffs[1:].copy()
        deriv[1::2] = 0  # even multiples vanish mod 2
        return deriv

    def __repr__(self) -> str:
        return f"GF2m(m={self.m})"
