"""Plane-native sketch core: `SketchPlaneStack` (and `SketchPlanes`, its
one-trial view) must be the scalar `KSparseSketch.add` loop, vectorised —
identical planes, identical bits, identical recovery — on int64 planes and
on Python-int planes alike, and `SketchSpec` must reject degenerate layouts
loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import TrialStore, free_grid, run_campaign
from repro.experiments.vmap import MAX_BATCH_TRIALS
from repro.sketch import ksparse
from repro.sketch.ksparse import (KSparseSketch, SketchPlanes,
                                  SketchPlaneStack, SketchRecoveryError,
                                  SketchSpec, planes_supported)

#: a spec with int64 planes
SPEC = SketchSpec(capacity=6, max_id=10_000, max_abs_count=64,
                  fingerprint_prime=(1 << 19) - 1)

#: specs whose planes hold Python ints: the default 2^61-1 fingerprint prime
#: over a universe small enough for bucket tables, and the adaptive
#: compiler's M19 spec at n=32, width 50 (ids up to 2^60, a ~68-bit id-sum
#: field)
WIDE_SPECS = [
    SketchSpec(capacity=4, max_id=10_000, max_abs_count=64),
    SketchSpec(capacity=4, max_id=(1 << 60) - 1, max_abs_count=34, rows=2,
               fingerprint_prime=(1 << 19) - 1),
]
WIDE_IDS = ["p61-table", "m19-width50"]


def scalar_reference(spec, seed, updates):
    sketch = KSparseSketch(spec, seed)
    for element, frequency in updates:
        sketch.add(element, frequency)
    return sketch


class TestAddManyParity:
    @given(st.lists(st.tuples(st.integers(0, SPEC.max_id),
                              st.integers(-3, 3).filter(lambda f: f != 0)),
                    min_size=0, max_size=40),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_add_many_matches_elementwise_add(self, updates, seed):
        ref = scalar_reference(SPEC, seed, updates)
        planes = SketchPlanes(SPEC, seed)
        if updates:
            ids, freqs = zip(*updates)
            planes.add_many(np.array(ids, dtype=np.int64),
                            np.array(freqs, dtype=np.int64))
        mirror = SketchPlanes.from_sketch(ref)
        np.testing.assert_array_equal(planes.count, mirror.count)
        np.testing.assert_array_equal(planes.id_sum, mirror.id_sum)
        np.testing.assert_array_equal(planes.fingerprint, mirror.fingerprint)
        # and the scalar grid rebuilt from the planes is the reference grid
        np.testing.assert_array_equal(planes.to_sketch().to_bits(),
                                      ref.to_bits())

    @given(st.dictionaries(st.integers(0, SPEC.max_id),
                           st.integers(-3, 3).filter(lambda f: f != 0),
                           min_size=0, max_size=6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_add_many_recover_matches_scalar_recover(self, truth, seed):
        """For k-sparse workloads both paths recover the same multiset —
        or stall identically (recovery is a deterministic function of the
        grid, and the grids are equal)."""
        updates = list(truth.items())
        ref = scalar_reference(SPEC, seed, updates)
        planes = SketchPlanes(SPEC, seed)
        if updates:
            ids, freqs = zip(*updates)
            planes.add_many(np.array(ids, dtype=np.int64),
                            np.array(freqs, dtype=np.int64))
        try:
            expected = ref.recover()
        except SketchRecoveryError:
            with pytest.raises(SketchRecoveryError):
                planes.recover()
            return
        assert planes.recover() == expected

    def test_cancellation_heavy_workload(self):
        # many updates, small net support: the Step IV subtraction shape
        rng = np.random.default_rng(5)
        support = rng.choice(SPEC.max_id + 1, size=4, replace=False)
        ids = support[rng.integers(0, 4, size=500)]
        freqs = rng.choice([-1, 1], size=500).astype(np.int64)
        planes = SketchPlanes(SPEC, 77)
        planes.add_many(ids, freqs)
        ref = scalar_reference(SPEC, 77, zip(ids.tolist(), freqs.tolist()))
        assert planes.recover() == ref.recover()

    def test_stack_lockstep_matches_per_trial_planes(self):
        seeds = [3, 3, 9]
        stack = SketchPlaneStack(SPEC, seeds)
        rng = np.random.default_rng(11)
        ids = rng.integers(0, SPEC.max_id + 1, size=(3, 20))
        stack.add_many_lockstep(ids, 1)
        for t, seed in enumerate(seeds):
            solo = SketchPlanes(SPEC, seed)
            solo.add_many(ids[t], np.ones(20, dtype=np.int64))
            np.testing.assert_array_equal(stack.count[t], solo.count)
            np.testing.assert_array_equal(stack.id_sum[t], solo.id_sum)
            np.testing.assert_array_equal(stack.fingerprint[t],
                                          solo.fingerprint)


def outcome_of(recover):
    try:
        return recover()
    except SketchRecoveryError:
        return SketchRecoveryError


class TestPythonIntPlanes:
    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=WIDE_IDS)
    @given(updates=st.data(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_planes_match_the_scalar_oracle(self, spec, updates, seed):
        """add_many, the to_bits/from_bits round trip and recover agree
        with the scalar grid exactly."""
        assert not planes_supported(spec)
        # at most 10 updates of |frequency| <= 3 keep every cell inside
        # max_abs_count, so both sides serialise
        pairs = updates.draw(st.lists(
            st.tuples(st.integers(0, spec.max_id),
                      st.integers(-3, 3).filter(lambda f: f != 0)),
            max_size=10))
        ref = scalar_reference(spec, seed, pairs)
        planes = SketchPlanes(spec, seed)
        if pairs:
            ids, freqs = zip(*pairs)
            planes.add_many(np.array(ids, dtype=object), list(freqs))
        assert planes.count.dtype == object
        mirror = SketchPlanes.from_sketch(ref)
        for name in ("count", "id_sum", "fingerprint"):
            np.testing.assert_array_equal(getattr(planes, name),
                                          getattr(mirror, name))
        bits = planes.to_bits()
        np.testing.assert_array_equal(bits, ref.to_bits())
        back = SketchPlanes.from_bits(spec, seed, bits)
        np.testing.assert_array_equal(back.to_bits(), bits)
        np.testing.assert_array_equal(back.to_sketch().to_bits(), bits)
        expected = outcome_of(ref.recover)
        assert outcome_of(planes.recover) == expected
        assert outcome_of(back.recover) == expected

    @pytest.mark.parametrize("spec", [SPEC] + WIDE_SPECS,
                             ids=["m19-int64"] + WIDE_IDS)
    def test_step_iv_subtraction_matches_the_scalar_oracle(self, spec):
        """The adaptive compiler's Step IV on a stack: decode every sketch,
        subtract the received copies with frequency -1, peel each — against
        KSparseSketch.from_bits, add and recover.  Trial 3's bits are
        corrupted in transit, so its peel fails on both sides."""
        rng = np.random.default_rng(17)
        trials, group = 6, 8
        seeds = [int(s) for s in rng.integers(0, 2**31, size=trials)]
        seeds[1] = seeds[0]  # trials of one batch may share their seed
        sent = rng.integers(0, spec.max_id + 1, size=(trials, group))
        received = sent.copy()
        received[:, :2] = rng.integers(0, spec.max_id + 1, size=(trials, 2))
        bits = np.stack([scalar_reference(spec, seed,
                                          [(int(e), 1) for e in row])
                         .to_bits() for seed, row in zip(seeds, sent)])
        # one flipped fingerprint bit: that cell can never peel to zero
        bits[3, spec.count_bits + spec.id_sum_bits] ^= 1
        if not planes_supported(spec):
            received = received.astype(object)

        stack = SketchPlaneStack.from_bits_many(spec, seeds, bits)
        stack.add_many_lockstep(received, -1)
        outcomes = stack.recover_many()

        for t, (seed, outcome) in enumerate(zip(seeds, outcomes)):
            oracle = KSparseSketch.from_bits(spec, seed, bits[t])
            for element in received[t]:
                oracle.add(int(element), -1)
            expected = outcome_of(oracle.recover)
            if isinstance(outcome, SketchRecoveryError):
                outcome = SketchRecoveryError
            assert outcome == expected, t
        assert isinstance(outcomes[3], SketchRecoveryError)
        # every intact sketch hands back its two corrections
        for t in set(range(trials)) - {3}:
            assert outcomes[t] == {**{int(e): -1 for e in received[t, :2]},
                                   **{int(e): 1 for e in sent[t, :2]}}, t

    def test_only_int64_planes_carry_a_weight_budget(self):
        """Updates past the int64 weight budget raise on int64 planes and
        stay exact on Python-int planes, whose id sums here outgrow int64."""
        freqs = np.full(4, 1 << 44)
        with pytest.raises(OverflowError):
            SketchPlanes(SPEC, 3).add_many(np.arange(4), freqs)
        wide = WIDE_SPECS[1]
        ids = wide.max_id - np.arange(4)
        planes = SketchPlanes(wide, 3)
        planes.add_many(ids, freqs)
        assert planes.id_sum.sum() == wide.rows * sum(int(e) << 44
                                                      for e in ids)


class TestRandomnessCache:
    def test_adaptive_cells_keep_the_cache_within_its_bound(self):
        """Each adaptive trial draws its own R2 seed, so an unbounded
        (spec, seed) cache grows with every trial a process runs."""
        cache = ksparse._sketch_randomness
        cache.cache_clear()
        for base_seed in (0, 1):
            spec = free_grid(name=f"sketch-cache-{base_seed}",
                             protocols=("adaptive",), adversaries=("null",),
                             ns=(16,), alphas=(0.0,), widths=(4,),
                             bandwidths=(8,), replicates=2,
                             base_seed=base_seed)
            run_campaign(spec, store=TrialStore(None), backend="vmap")
        # one entry per trial: four trials, four seeds
        assert cache.cache_info().currsize == 4
        # the bound holds one batch's seeds, and nothing past it stays
        assert ksparse._RANDOMNESS_CACHE_SIZE >= MAX_BATCH_TRIALS
        tiny = SketchSpec(capacity=1, max_id=7, max_abs_count=1)
        for seed in range(2 * ksparse._RANDOMNESS_CACHE_SIZE):
            KSparseSketch(tiny, seed)
        assert cache.cache_info().currsize == ksparse._RANDOMNESS_CACHE_SIZE


class TestSketchSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("capacity", 0), ("capacity", -2),
        ("rows", 0), ("rows", -1),
        ("max_id", -1),
        ("max_abs_count", 0),
        ("fingerprint_prime", 1),
    ])
    def test_degenerate_layouts_rejected_naming_field(self, field, value):
        kwargs = dict(capacity=4, max_id=100, max_abs_count=8)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SketchSpec(**kwargs)

    def test_valid_spec_accepted(self):
        spec = SketchSpec(capacity=1, max_id=0, max_abs_count=1, rows=1)
        assert spec.buckets == 2
