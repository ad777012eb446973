"""Reed–Solomon codes over GF(2^m) with Berlekamp–Massey decoding.

This is the outer code of the Justesen-like concatenated construction
(Lemma 2.1 substitute).  We use the BCH view with systematic encoding and a
standard syndrome decoder (Berlekamp–Massey error locator, Chien search,
Forney error values), which corrects up to ``t = (n - k) // 2`` symbol
errors.  Shortened codes (n below 2^m - 1) are supported directly: the
decoder only searches error positions inside the shortened word.

Errors-and-erasures decoding: every decode entry point accepts an optional
``erasures`` argument naming received positions *known* to be unreliable
(the transport's dropped mask from ``exchange_words``).  With ``f`` declared
erasures and ``e`` additional errors, decoding is guaranteed whenever
``2e + f <= d - 1 = n - k`` — i.e. pure drops are recovered up to ``d - 1``
positions, twice the errors-only radius.  The implementation initialises
Berlekamp–Massey with the erasure locator ``Gamma(x) = prod (1 - alpha^p x)``
so the combined error/erasure locator ``psi = Gamma * sigma`` comes out of
the same lockstep kernel that solves the errors-only case (``f = 0``
reduces to the classic recursion exactly).
"""

from __future__ import annotations

import numpy as np

from repro.coding.interfaces import BinaryCode, DecodingFailure
from repro.fields.gf2m import GF2m
from repro.obs import tracing
from repro.utils.bits import BitArray, as_bits


class ReedSolomonCodec:
    """Symbol-level RS encoder/decoder over GF(2^m).

    Codewords are numpy int64 arrays of ``n`` symbols in ``[0, 2^m)``; the
    systematic message occupies the *last* ``k`` symbol positions.
    """

    def __init__(self, field: GF2m, n: int, k: int):
        if not 0 < k < n <= field.order - 1:
            raise ValueError(
                f"need 0 < k < n <= {field.order - 1}, got n={n}, k={k}")
        self.field = field
        self.n = n
        self.k = k
        self.t = (n - k) // 2
        roots = field.pow_alpha_many(np.arange(1, n - k + 1))
        self._generator_poly = field.poly_from_roots(roots)
        # alpha^{-j} / alpha^{j} for every codeword position j (Chien search)
        self._alpha_inv_positions = field.pow_alpha_many(-np.arange(n))
        self._alpha_positions = field.pow_alpha_many(np.arange(n))
        # systematic parity matrix: parity(msg) = msg @ P over GF(2^m);
        # row i is x^{n_parity + i} mod g, built by the shift-and-reduce
        # recurrence r_{i+1} = (r_i * x) mod g (g is monic, so reduction is
        # one vectorised scale of its low part) instead of one full encode
        # per unit vector
        parity_width = n - k
        g_low = self._generator_poly[:parity_width]
        parity = np.zeros((k, parity_width), dtype=np.int64)
        remainder = g_low.copy()  # x^{n_parity} mod g, characteristic 2
        parity[0] = remainder
        for i in range(1, k):
            top = int(remainder[-1])
            shifted = np.zeros_like(remainder)
            shifted[1:] = remainder[:-1]
            if top:
                shifted ^= field.mul(g_low, top)
            remainder = shifted
            parity[i] = remainder
        self._parity_matrix = parity
        # syndrome matrix: S_j = word @ SM[:, j-1], SM[i, j-1] = alpha^{j*i}
        self._syndrome_matrix = field.pow_alpha_many(
            np.arange(n)[:, None] * np.arange(1, parity_width + 1)[None, :])

    @property
    def symbol_distance(self) -> int:
        """Design distance n - k + 1 (MDS)."""
        return self.n - self.k + 1

    def encode(self, message_symbols: np.ndarray) -> np.ndarray:
        msg = np.asarray(message_symbols, dtype=np.int64)
        if msg.shape != (self.k,):
            raise ValueError(f"expected {self.k} message symbols, got {msg.shape}")
        return self.encode_many(msg[None, :])[0]

    def decode(self, received: np.ndarray,
               erasures: np.ndarray | None = None) -> np.ndarray:
        """Return the ``k`` message symbols; raises DecodingFailure if more
        than ``t`` symbol errors occurred (detected) or decoding is
        inconsistent.  ``erasures`` optionally flags known-unreliable
        positions (boolean mask of length n), raising the radius to
        ``2e + f <= n - k``."""
        word = np.asarray(received, dtype=np.int64)
        if word.shape != (self.n,):
            raise ValueError(f"expected {self.n} symbols, got {word.shape}")
        corrected = self.correct(word, erasures=erasures)
        return corrected[self.n - self.k:]

    def correct(self, received: np.ndarray,
                erasures: np.ndarray | None = None) -> np.ndarray:
        """Return the full corrected codeword.

        With ``erasures`` (boolean mask over positions), runs
        errors-and-erasures decoding: ``f`` erasures plus ``e`` errors are
        corrected whenever ``2e + f <= n - k``.
        """
        if erasures is not None:
            mask = np.asarray(erasures, dtype=bool)
            if mask.shape != (self.n,):
                raise ValueError(
                    f"expected erasure mask of {self.n} positions, "
                    f"got {mask.shape}")
            if mask.any():
                return self._correct_erasures_scalar(received, mask)
        field = self.field
        word = np.asarray(received, dtype=np.int64).copy()
        n_syndromes = self.n - self.k
        syndromes = [
            int(field.poly_eval(word, field.pow_alpha(j)))
            for j in range(1, n_syndromes + 1)
        ]
        if not any(syndromes):
            return word
        sigma, num_errors = self._berlekamp_massey(syndromes)
        if num_errors > self.t:
            raise DecodingFailure(
                f"error locator degree {num_errors} exceeds capability {self.t}")
        # Chien search over the shortened positions
        evals = field.poly_eval(sigma, self._alpha_inv_positions)
        error_positions = np.flatnonzero(evals == 0)
        if len(error_positions) != num_errors:
            raise DecodingFailure(
                f"found {len(error_positions)} locator roots, "
                f"expected {num_errors}")
        # Forney error values
        s_poly = np.array(syndromes, dtype=np.int64)
        omega = field.poly_mul(s_poly, sigma)[:n_syndromes]
        sigma_deriv = field.poly_deriv(sigma)
        for pos in error_positions:
            x_inv = int(self._alpha_inv_positions[pos])
            denom = int(field.poly_eval(sigma_deriv, x_inv))
            if denom == 0:
                raise DecodingFailure("Forney denominator vanished")
            numer = int(field.poly_eval(omega, x_inv))
            magnitude = field.div(numer, denom)
            word[pos] = int(field.add(int(word[pos]), int(magnitude)))
        # verify: all syndromes of the corrected word must vanish
        for j in range(1, n_syndromes + 1):
            if int(field.poly_eval(word, field.pow_alpha(j))) != 0:
                raise DecodingFailure("corrected word is not a codeword")
        return word

    def _correct_erasures_scalar(self, received: np.ndarray,
                                 mask: np.ndarray) -> np.ndarray:
        """Scalar errors-and-erasures correction (erasure mask is non-empty).

        The erasure locator Gamma(x) = prod_{p erased} (1 + alpha^p x) seeds
        Berlekamp–Massey; the recursion then synthesises the combined
        error/erasure locator psi = Gamma * sigma directly.  This scalar path
        is deliberately independent of :meth:`_correct_many_erasures` so the
        parity tests can race them.
        """
        field = self.field
        word = np.asarray(received, dtype=np.int64).copy()
        n_syndromes = self.n - self.k
        positions = np.flatnonzero(mask)
        f = int(positions.size)
        if f > n_syndromes:
            raise DecodingFailure(
                f"{f} erasures exceed the design distance minus one "
                f"({n_syndromes})")
        syndromes = [
            int(field.poly_eval(word, field.pow_alpha(j)))
            for j in range(1, n_syndromes + 1)
        ]
        if not any(syndromes):
            return word
        gamma = np.array([1], dtype=np.int64)
        for pos in positions:
            factor = np.array([1, int(self._alpha_positions[pos])],
                              dtype=np.int64)
            gamma = field.poly_mul(gamma, factor)
        psi, num_roots = self._berlekamp_massey_erasures(syndromes, gamma, f)
        if 2 * num_roots - f > n_syndromes:
            raise DecodingFailure(
                f"combined locator needs {num_roots} roots with {f} "
                f"erasures: beyond radius 2e + f <= {n_syndromes}")
        evals = field.poly_eval(psi, self._alpha_inv_positions)
        error_positions = np.flatnonzero(evals == 0)
        if len(error_positions) != num_roots:
            raise DecodingFailure(
                f"found {len(error_positions)} locator roots, "
                f"expected {num_roots}")
        s_poly = np.array(syndromes, dtype=np.int64)
        omega = field.poly_mul(s_poly, psi)[:n_syndromes]
        psi_deriv = field.poly_deriv(psi)
        for pos in error_positions:
            x_inv = int(self._alpha_inv_positions[pos])
            denom = int(field.poly_eval(psi_deriv, x_inv))
            if denom == 0:
                raise DecodingFailure("Forney denominator vanished")
            numer = int(field.poly_eval(omega, x_inv))
            magnitude = field.div(numer, denom)
            word[pos] = int(field.add(int(word[pos]), int(magnitude)))
        for j in range(1, n_syndromes + 1):
            if int(field.poly_eval(word, field.pow_alpha(j))) != 0:
                raise DecodingFailure("corrected word is not a codeword")
        return word

    def _berlekamp_massey_erasures(self, syndromes, gamma: np.ndarray,
                                   f: int):
        """Berlekamp–Massey seeded with an erasure locator.

        Starting from ``c = b = Gamma`` and LFSR length ``L = f``, the first
        ``f`` syndromes are skipped (they are absorbed by Gamma) and the
        growth condition/length update shift by ``f``; at ``f = 0`` this is
        exactly :meth:`_berlekamp_massey`.  Returns ``(psi, L)`` where ``L``
        counts the roots of the combined locator (erasures + errors).
        """
        field = self.field
        c = np.array(gamma, dtype=np.int64)
        b = c.copy()
        length = f
        shift = 1
        b_discrepancy = 1
        for i in range(f, len(syndromes)):
            # discrepancy over the full current locator (c_0 need not be the
            # only unit coefficient once Gamma is folded in)
            d = syndromes[i]
            for j in range(1, min(i, len(c) - 1) + 1):
                if c[j]:
                    d = int(field.add(
                        d, field.mul(int(c[j]), syndromes[i - j])))
            if d == 0:
                shift += 1
                continue
            coef = field.div(d, b_discrepancy)
            adjustment = np.zeros(shift + len(b), dtype=np.int64)
            adjustment[shift:] = field.mul(int(coef), b)
            if 2 * length <= i + f:
                prev_c = c
                c = _poly_add(field, c, adjustment)
                length = i + 1 - length + f
                b = prev_c
                b_discrepancy = d
                shift = 1
            else:
                c = _poly_add(field, c, adjustment)
                shift += 1
        return c, length

    # -- batched paths (routing hot loop) -------------------------------------
    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (count, k) symbol matrix into (count, n) codewords."""
        messages = np.asarray(messages, dtype=np.int64)
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"expected shape (*, {self.k})")
        if messages.size and (messages.min() < 0
                              or messages.max() >= self.field.order):
            raise ValueError("message symbols out of field range")
        parity = self.field.matmul(messages, self._parity_matrix)
        return np.concatenate([parity, messages], axis=1)

    def syndromes_many(self, words: np.ndarray) -> np.ndarray:
        """All 2t syndromes of every word, vectorised."""
        words = np.asarray(words, dtype=np.int64)
        return self.field.matmul(words, self._syndrome_matrix)

    def _eval_many(self, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Evaluate polynomial row r of ``coeffs`` at every x in ``xs``:
        a (rows, len(xs)) Horner sweep — one vectorised multiply-add per
        coefficient column, shared by the batch Chien search and the batch
        Forney step."""
        field = self.field
        out = np.zeros((coeffs.shape[0], xs.size), dtype=np.int64)
        for c in range(coeffs.shape[1] - 1, -1, -1):
            out = field.mul(out, xs[None, :]) ^ coeffs[:, c][:, None]
        return out

    def correct_many(self, words: np.ndarray,
                     erasures: np.ndarray | None = None):
        """Batch bounded-distance correction of (count, n) words.

        Returns ``(corrected, failed)``.  The pipeline is vectorised end to
        end: batched syndromes, a zero-syndrome short-circuit, a batched
        multi-row Berlekamp–Massey (:meth:`_berlekamp_massey_many`, all
        dirty rows advancing in lockstep) for the error locators, then batch
        Chien search, batch Forney evaluation and a batched re-syndrome
        verification over all dirty rows at once.  Failed rows are returned
        unmodified with their flag set.

        ``erasures`` optionally supplies a (count, n) boolean mask of
        known-unreliable positions; rows then decode through the batched
        errors-and-erasures kernel with per-row radius ``2e + f <= n - k``.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"expected shape (*, {self.n})")
        if erasures is not None:
            masks = np.asarray(erasures, dtype=bool)
            if masks.shape != words.shape:
                raise ValueError(
                    f"erasure mask shape {masks.shape} != {words.shape}")
            if masks.any():
                with tracing.span("rs.correct_many_erasures"):
                    return self._correct_many_erasures(words, masks)
        with tracing.span("rs.correct_many"):
            return self._correct_many(words)

    def _correct_many(self, words: np.ndarray):
        count = words.shape[0]
        tracing.count("rs.words", count)
        corrected = words.copy()
        failed = np.zeros(count, dtype=bool)
        syndromes = self.syndromes_many(words)
        dirty = np.flatnonzero(syndromes.any(axis=1))
        tracing.count("rs.dirty_rows", int(dirty.size))
        if dirty.size == 0:
            return corrected, failed
        field = self.field
        n_synd = self.n - self.k
        synd = syndromes[dirty]

        # error locators: all dirty rows walk Berlekamp–Massey in lockstep
        with tracing.span("rs.batch_bm"):
            full_sigmas, num_errors = self._berlekamp_massey_many(synd)
        ok = (num_errors <= self.t) \
            & ~full_sigmas[:, self.t + 1:].any(axis=1)
        sigmas = np.where(ok[:, None], full_sigmas[:, :self.t + 1], 0)

        # batch Chien search: evaluate every locator at every position
        evals = self._eval_many(sigmas, self._alpha_inv_positions)
        err = (evals == 0)
        ok &= err.sum(axis=1) == num_errors

        # batch Forney: omega = S * sigma mod x^{2t}, sigma' formal derivative
        omega = np.zeros((dirty.size, n_synd), dtype=np.int64)
        for b in range(min(self.t, n_synd - 1) + 1):
            omega[:, b:] ^= field.mul(sigmas[:, b][:, None],
                                      synd[:, :n_synd - b])
        deriv = sigmas[:, 1:].copy()
        deriv[:, 1::2] = 0
        if deriv.shape[1] == 0:
            deriv = np.zeros((dirty.size, 1), dtype=np.int64)
        omega_vals = self._eval_many(omega, self._alpha_inv_positions)
        deriv_vals = self._eval_many(deriv, self._alpha_inv_positions)
        ok &= ~np.any(err & (deriv_vals == 0), axis=1)  # Forney denominator
        apply = err & ok[:, None]
        magnitudes = field.mul(
            omega_vals, field.inv(np.where(deriv_vals == 0, 1, deriv_vals)))
        patched = words[dirty] ^ np.where(apply, magnitudes, 0)

        # verify: all syndromes of every corrected word must vanish
        ok &= ~self.field.matmul(patched, self._syndrome_matrix).any(axis=1)

        good = dirty[ok]
        corrected[good] = patched[ok]
        failed[dirty[~ok]] = True
        tracing.count("rs.failed_rows", int(failed.sum()))
        return corrected, failed

    def decode_many_flagged(self, words: np.ndarray,
                            erasures: np.ndarray | None = None):
        """Decode (count, n) words; returns ((count, k) messages, failed).

        This is the *primary* decoding interface — the per-word
        :meth:`decode` is the convenience wrapper.  Words with all-zero
        syndromes decode by projection; corrupted words go through the
        batched :meth:`correct_many` pipeline.  Failed rows come back
        all-zero with their flag set.
        """
        corrected, failed = self.correct_many(words, erasures=erasures)
        messages = corrected[:, self.n - self.k:].copy()
        messages[failed] = 0
        return messages, failed

    def _berlekamp_massey_many(self, syndromes: np.ndarray):
        """Vectorised multi-row Berlekamp–Massey.

        ``syndromes`` is a ``(rows, 2t)`` matrix; every row advances the
        classic LFSR-synthesis state machine in lockstep, with the
        data-dependent branches turned into row masks.  Returns
        ``(sigmas, lengths)`` where ``sigmas`` is ``(rows, 2t + 1)`` (the
        full locator buffer — callers check degree bounds themselves) and
        ``lengths`` the per-row LFSR length L.

        Instead of the scalar version's explicit ``shift`` counter, the
        previous locator is kept *pre-shifted*: ``shifted_b`` holds
        ``x^shift * B(x)`` and is multiplied by ``x`` (one uniform roll
        across all rows) at the end of every iteration, which is what makes
        the per-row variable shift vectorisable.  The per-word
        :meth:`_berlekamp_massey` is the parity oracle for this kernel
        (``tests/test_reed_solomon.py`` races them row by row, including
        beyond-radius rows).
        """
        field = self.field
        synd = np.asarray(syndromes, dtype=np.int64)
        rows, n_synd = synd.shape
        width = n_synd + 1  # deg(sigma) <= L <= n_synd throughout
        c = np.zeros((rows, width), dtype=np.int64)
        c[:, 0] = 1
        shifted_b = np.zeros((rows, width), dtype=np.int64)
        shifted_b[:, 1] = 1  # x^1 * B(x) with B = 1, shift = 1
        lengths = np.zeros(rows, dtype=np.int64)
        b_discrepancy = np.ones(rows, dtype=np.int64)
        for i in range(n_synd):
            # d = sum_{j=0..i} c_j * S_{i-j}; coefficients beyond the
            # current degree are zero, so the full-width sum matches the
            # scalar loop's 1..L window
            d = synd[:, i].copy()
            for j in range(1, min(i, width - 1) + 1):
                d ^= field.mul(c[:, j], synd[:, i - j])
            update = d != 0
            grow = update & (2 * lengths <= i)
            adjustment = field.mul(
                field.div_where(d, b_discrepancy)[:, None], shifted_b)
            new_c = np.where(update[:, None], c ^ adjustment, c)
            shifted_b = np.where(grow[:, None], c, shifted_b)
            b_discrepancy = np.where(grow, d, b_discrepancy)
            lengths = np.where(grow, i + 1 - lengths, lengths)
            c = new_c
            # uniform end-of-iteration shift: B' <- x * B'
            shifted_b[:, 1:] = shifted_b[:, :-1]
            shifted_b[:, 0] = 0
        return c, lengths

    def _erasure_locators_many(self, masks: np.ndarray) -> np.ndarray:
        """Build the erasure locator Gamma(x) = prod (1 + alpha^p x) for
        every row of a (rows, n) boolean mask, as (rows, n - k + 1)
        ascending-coefficient polynomials.  Vectorised over rows: the
        erased positions are ranked within their row, padded to the widest
        row, and each rank multiplies all rows by its linear factor at once
        (masked to rows that actually have that many erasures)."""
        rows = masks.shape[0]
        width = self.n - self.k + 1
        counts = masks.sum(axis=1)
        gammas = np.zeros((rows, width), dtype=np.int64)
        gammas[:, 0] = 1
        max_f = int(counts.max()) if rows else 0
        if max_f == 0:
            return gammas
        row_idx, pos_idx = np.nonzero(masks)
        starts = np.cumsum(counts) - counts
        ranks = np.arange(row_idx.size) - starts[row_idx]
        padded = np.full((rows, max_f), -1, dtype=np.int64)
        padded[row_idx, ranks] = pos_idx
        field = self.field
        for s in range(max_f):
            pos = padded[:, s]
            active = pos >= 0
            roots = self._alpha_positions[np.where(active, pos, 0)]
            shifted = np.zeros_like(gammas)
            shifted[:, 1:] = field.mul(gammas[:, :-1], roots[:, None])
            gammas = np.where(active[:, None], gammas ^ shifted, gammas)
        return gammas

    def _berlekamp_massey_erasures_many(self, syndromes: np.ndarray,
                                        gammas: np.ndarray,
                                        fs: np.ndarray):
        """Lockstep errors-and-erasures Berlekamp–Massey.

        The erasure-seeded variant of :meth:`_berlekamp_massey_many`: row r
        starts from ``c = Gamma_r`` with LFSR length ``f_r`` and only joins
        the recursion once ``i >= f_r`` (its first ``f_r`` syndromes are
        absorbed by Gamma).  The inactive-row masking must cover the
        end-of-iteration ``x * B`` roll too, so that a row's first active
        iteration still sees ``x * Gamma`` as its shifted previous locator.
        Returns ``(psis, lengths)``: the combined error/erasure locators
        (rows, n - k + 1) and their root counts.  With ``fs == 0``
        everywhere this matches :meth:`_berlekamp_massey_many` exactly.
        """
        field = self.field
        synd = np.asarray(syndromes, dtype=np.int64)
        rows, n_synd = synd.shape
        width = n_synd + 1
        c = gammas.copy()
        shifted_b = np.zeros((rows, width), dtype=np.int64)
        shifted_b[:, 1:] = gammas[:, :-1]  # x^1 * Gamma, shift = 1
        lengths = fs.astype(np.int64).copy()
        b_discrepancy = np.ones(rows, dtype=np.int64)
        for i in range(n_synd):
            active = i >= fs
            d = synd[:, i].copy()
            for j in range(1, min(i, width - 1) + 1):
                d ^= field.mul(c[:, j], synd[:, i - j])
            update = active & (d != 0)
            grow = update & (2 * lengths <= i + fs)
            adjustment = field.mul(
                field.div_where(d, b_discrepancy)[:, None], shifted_b)
            new_c = np.where(update[:, None], c ^ adjustment, c)
            shifted_b = np.where(grow[:, None], c, shifted_b)
            b_discrepancy = np.where(grow, d, b_discrepancy)
            lengths = np.where(grow, i + 1 - lengths + fs, lengths)
            c = new_c
            # roll B' <- x * B' only on active rows: an inactive row keeps
            # x * Gamma frozen until its recursion starts
            rolled = np.zeros_like(shifted_b)
            rolled[:, 1:] = shifted_b[:, :-1]
            shifted_b = np.where(active[:, None], rolled, shifted_b)
        return c, lengths

    def _correct_many_erasures(self, words: np.ndarray, masks: np.ndarray):
        """Batched errors-and-erasures pipeline (mask is non-empty).

        Mirrors :meth:`_correct_many` with the combined locator
        ``psi = Gamma * sigma``: per-row decodability is
        ``2L - f <= n - k`` (L roots total, f of them erasures) and the
        degree/Chien/Forney/re-syndrome checks run over the full-width
        locator buffer since deg(psi) can reach ``n - k``.
        """
        count = words.shape[0]
        tracing.count("rs.words", count)
        corrected = words.copy()
        failed = np.zeros(count, dtype=bool)
        n_synd = self.n - self.k
        fs_all = masks.sum(axis=1).astype(np.int64)
        over = fs_all > n_synd
        failed |= over
        syndromes = self.syndromes_many(words)
        dirty = np.flatnonzero(syndromes.any(axis=1) & ~over)
        tracing.count("rs.dirty_rows", int(dirty.size))
        if dirty.size == 0:
            tracing.count("rs.failed_rows", int(failed.sum()))
            return corrected, failed
        field = self.field
        synd = syndromes[dirty]
        fs = fs_all[dirty]
        gammas = self._erasure_locators_many(masks[dirty])

        with tracing.span("rs.batch_bm_erasures"):
            psis, lengths = self._berlekamp_massey_erasures_many(
                synd, gammas, fs)
        width = n_synd + 1
        ok = (2 * lengths - fs) <= n_synd
        # degree bound: coefficients beyond the claimed root count vanish
        cols = np.arange(width)[None, :]
        ok &= ~((psis != 0) & (cols > lengths[:, None])).any(axis=1)
        psis = np.where(ok[:, None], psis, 0)

        evals = self._eval_many(psis, self._alpha_inv_positions)
        err = (evals == 0)
        ok &= err.sum(axis=1) == lengths

        # batch Forney with the combined locator: omega = S * psi mod x^{2t}
        omega = np.zeros((dirty.size, n_synd), dtype=np.int64)
        for b in range(n_synd):
            omega[:, b:] ^= field.mul(psis[:, b][:, None],
                                      synd[:, :n_synd - b])
        deriv = psis[:, 1:].copy()
        deriv[:, 1::2] = 0
        if deriv.shape[1] == 0:
            deriv = np.zeros((dirty.size, 1), dtype=np.int64)
        omega_vals = self._eval_many(omega, self._alpha_inv_positions)
        deriv_vals = self._eval_many(deriv, self._alpha_inv_positions)
        ok &= ~np.any(err & (deriv_vals == 0), axis=1)
        apply = err & ok[:, None]
        magnitudes = field.mul(
            omega_vals, field.inv(np.where(deriv_vals == 0, 1, deriv_vals)))
        patched = words[dirty] ^ np.where(apply, magnitudes, 0)

        ok &= ~self.field.matmul(patched, self._syndrome_matrix).any(axis=1)

        good = dirty[ok]
        corrected[good] = patched[ok]
        failed[dirty[~ok]] = True
        tracing.count("rs.failed_rows", int(failed.sum()))
        return corrected, failed

    def _berlekamp_massey(self, syndromes):
        """Return (error locator polynomial sigma, number of errors L)."""
        field = self.field
        c = np.array([1], dtype=np.int64)  # current locator
        b = np.array([1], dtype=np.int64)  # previous locator
        length = 0
        shift = 1
        b_discrepancy = 1
        for i, s_i in enumerate(syndromes):
            # discrepancy d = S_i + sum_{j=1}^{L} c_j * S_{i-j}
            d = s_i
            for j in range(1, length + 1):
                if j < len(c) and c[j]:
                    d = int(field.add(d, field.mul(int(c[j]), syndromes[i - j])))
            if d == 0:
                shift += 1
                continue
            coef = field.div(d, b_discrepancy)
            adjustment = np.zeros(shift + len(b), dtype=np.int64)
            adjustment[shift:] = field.mul(int(coef), b)
            if 2 * length <= i:
                prev_c = c
                c = _poly_add(field, c, adjustment)
                length = i + 1 - length
                b = prev_c
                b_discrepancy = d
                shift = 1
            else:
                c = _poly_add(field, c, adjustment)
                shift += 1
        return c, length

    def __repr__(self) -> str:
        return (f"ReedSolomonCodec(GF(2^{self.field.m}), n={self.n}, "
                f"k={self.k}, t={self.t})")


def _poly_add(field: GF2m, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    size = max(len(a), len(b))
    out = np.zeros(size, dtype=np.int64)
    out[:len(a)] = a
    out[:len(b)] = field.add(out[:len(b)], b)
    return out


class ReedSolomonBinaryCode(BinaryCode):
    """Bit-level adapter: m bits per symbol, symbols laid out consecutively.

    As a *binary* code its guaranteed correction radius is ``t`` bit errors
    (each bit error damages at most one symbol); the concatenated code in
    ``repro.coding.justesen`` is the construction that amplifies this.
    """

    supports_erasures = True

    def __init__(self, codec: ReedSolomonCodec):
        self.codec = codec
        self.m = codec.field.m
        self.k = codec.k * self.m
        self.n = codec.n * self.m

    @property
    def relative_distance(self) -> float:
        # decode() is guaranteed for < t+1 bit errors; report the matching
        # "unique decoding" distance 2(t+1)/n so the BinaryCode contract holds.
        return 2 * (self.codec.t + 1) / self.n

    def _bits_to_symbols(self, bits: BitArray) -> np.ndarray:
        arr = as_bits(bits).reshape(-1, self.m)
        weights = (1 << np.arange(self.m, dtype=np.int64))
        return (arr.astype(np.int64) * weights[None, :]).sum(axis=1)

    def _symbols_to_bits(self, symbols: np.ndarray) -> BitArray:
        symbols = np.asarray(symbols, dtype=np.int64)
        out = ((symbols[:, None] >> np.arange(self.m)[None, :]) & 1)
        return out.astype(np.uint8).reshape(-1)

    def encode(self, message: BitArray) -> BitArray:
        message = self._check_message(message)
        return self._symbols_to_bits(self.codec.encode(self._bits_to_symbols(message)))

    def decode(self, received: BitArray) -> BitArray:
        received = self._check_received(received)
        symbols = self.codec.decode(self._bits_to_symbols(received))
        return self._symbols_to_bits(symbols)

    # -- batched paths (primary interface) ------------------------------------
    def _rows_to_symbols(self, rows: np.ndarray, symbols: int) -> np.ndarray:
        weights = (1 << np.arange(self.m, dtype=np.int64))
        return (rows.reshape(rows.shape[0], symbols, self.m).astype(np.int64)
                * weights[None, None, :]).sum(axis=2)

    def _symbols_to_rows(self, symbols: np.ndarray) -> np.ndarray:
        bits = ((symbols[:, :, None] >> np.arange(self.m)[None, None, :]) & 1)
        return bits.astype(np.uint8).reshape(symbols.shape[0], -1)

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.size == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        symbols = self._rows_to_symbols(messages, self.codec.k)
        return self._symbols_to_rows(self.codec.encode_many(symbols))

    def decode_many_flagged(self, received: np.ndarray,
                            erasures: np.ndarray | None = None):
        received = np.asarray(received, dtype=np.uint8)
        if received.size == 0:
            return (np.zeros((0, self.k), dtype=np.uint8),
                    np.zeros(received.shape[0], dtype=bool))
        symbols = self._rows_to_symbols(received, self.codec.n)
        symbol_erasures = None
        if erasures is not None:
            masks = np.asarray(erasures, dtype=bool)
            if masks.shape != received.shape:
                raise ValueError(
                    f"erasure mask shape {masks.shape} != {received.shape}")
            # a symbol is erased iff any of its m bits is
            symbol_erasures = masks.reshape(
                masks.shape[0], self.codec.n, self.m).any(axis=2)
        decoded, failed = self.codec.decode_many_flagged(
            symbols, erasures=symbol_erasures)
        return self._symbols_to_rows(decoded), failed
