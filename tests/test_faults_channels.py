"""Stochastic channel adversaries (`repro.faults.channels`) and the
one-seed instances of every seeded batched adversary.

Property tests: every mask any channel ever emits respects the
symmetric faulty-degree budget; a batch over seeds ``[s1..sk]`` equals
``k`` one-seed instances, round by round; transport drop positions reach
the decoder as erasure positions; and whole campaigns under these
adversaries match between the serial and vmap backends.
"""

import json

import numpy as np
import pytest

from repro.adversary import (BatchedNonAdaptiveAdversary, BlockStrategy,
                             NoEdgesStrategy, NonAdaptiveAdversary,
                             RandomRegularStrategy,
                             RoundRobinMatchingStrategy, StaticStrategy)
from repro.adversary.batched import BatchRoundView
from repro.adversary.budget import fault_degrees, max_faulty_degree
from repro.experiments import TrialStore, free_grid, run_campaign
from repro.faults.channels import (BatchedByzantineNodeAdversary,
                                   BatchedGilbertElliottChannel,
                                   BatchedIIDEdgeChannel,
                                   ByzantineNodeAdversary,
                                   GilbertElliottChannel, IIDEdgeChannel,
                                   degree_capped_mask)
from repro.utils.rng import make_rng


def _intended(trials, n, fill=1):
    intended = np.full((trials, n, n), fill, dtype=np.int64)
    intended[:, np.arange(n), np.arange(n)] = -1
    return intended


def _view(n, index, width=8, fill=1):
    """A one-trial lockstep view: what a serial run's adversary sees."""
    return BatchRoundView(index=index, width=width,
                          intended=_intended(1, n, fill))


def _run_rounds(channel, n, rounds=12, width=8):
    """The masks a one-seed adversary picks over ``rounds`` rounds."""
    channel.begin_protocol(n, 1)
    masks = []
    for r in range(rounds):
        view = _view(n, r, width)
        mask = channel.select_edges_many(view)
        channel.corrupt_many(view, mask)  # keep any content RNG in lockstep
        masks.append(mask[0])
    return np.stack(masks)


class TestBudgetProperties:
    @pytest.mark.parametrize("n,alpha", [(8, 0.1), (16, 0.2), (24, 0.08),
                                         (33, 0.3), (16, 0.5)])
    @pytest.mark.parametrize("kind", ["iid", "ge"])
    def test_channels_never_exceed_budget(self, n, alpha, kind):
        if kind == "iid":
            channel = IIDEdgeChannel(alpha, seed=7)
        else:
            channel = GilbertElliottChannel(alpha, seed=7)
        budget = max_faulty_degree(n, alpha)
        for mask in _run_rounds(channel, n, rounds=16):
            assert np.array_equal(mask, mask.T)
            assert not mask.diagonal().any()
            assert fault_degrees(mask).max(initial=0) <= budget

    def test_degree_cap_is_deterministic_and_tight(self):
        rng = make_rng(3)
        n, budget = 20, 3
        sample = rng.random((n, n)) < 0.6
        sample = np.triu(sample, 1)
        sample = sample | sample.swapaxes(-1, -2)
        priority = rng.random((n, n))
        priority = np.triu(priority, 1)
        priority = priority + priority.swapaxes(-1, -2)
        a = degree_capped_mask(sample, priority, budget)
        b = degree_capped_mask(sample, priority, budget)
        assert np.array_equal(a, b)
        assert fault_degrees(a).max() <= budget
        assert a.sum() > 0
        assert not a[~sample].any()  # cap only removes, never adds

    def test_byzantine_nodes_corrupt_exactly_incident_edges(self):
        n, frac = 16, 0.25
        adversary = ByzantineNodeAdversary(frac, seed=5)
        adversary.begin_protocol(n, 1)
        f = int(np.floor(frac * n))
        view = _view(n, 0)
        mask = adversary.select_edges_many(view)
        assert np.array_equal(mask, adversary.select_edges_many(_view(n, 1)))
        degrees = fault_degrees(mask[0])
        # f nodes of degree n-1, everyone else degree f
        assert (degrees == n - 1).sum() == f
        assert (degrees[degrees != n - 1] == f).all()
        # corrupt mode flips every bit of a message on an incident edge
        delivered = adversary.corrupt_many(view, mask)[0]
        assert (delivered[mask[0]] == 0b11111110).all()
        assert np.array_equal(delivered[~mask[0]], view.intended[0][~mask[0]])
        # the engine validates at degree 1.0, code sizing sees the fraction
        assert adversary.validation_alpha == 1.0
        assert adversary.alpha == frac

    def test_unknown_channel_mode_rejected(self):
        for make in (lambda: IIDEdgeChannel(0.1, mode="nope"),
                     lambda: GilbertElliottChannel(0.1, mode="nope"),
                     lambda: ByzantineNodeAdversary(0.1, mode="nope")):
            with pytest.raises(ValueError, match="unknown channel mode"):
                make()
        with pytest.raises(ValueError, match="burst"):
            BatchedGilbertElliottChannel(0.1, [1], burst=0.5)
        with pytest.raises(ValueError, match="too close to 1"):
            GilbertElliottChannel(0.96)


def assert_batch_matches_one_seed_instances(batch, singles, n, rounds=6,
                                            width=8):
    """Drive ``batch`` (one trial per entry of ``singles``) and each
    one-seed instance through the same rounds: every trial's mask and
    delivered payloads must equal its instance's.  The last two rounds are
    ragged — per-trial widths, and trial 0 sits them out as a trial whose
    serial run has finished does: its instance is not consulted, and the
    engine zeroes its edges before ``corrupt_many``."""
    trials = len(singles)
    batch.begin_protocol(n, trials)
    for single in singles:
        single.begin_protocol(n, 1)
    rng = make_rng(n + rounds)
    corrupted = 0
    for r in range(rounds):
        # values of two bits fit every trial's width, ragged or not
        intended = rng.integers(-1, 4, size=(trials, n, n), dtype=np.int64)
        if r < rounds - 2:
            view = BatchRoundView(index=r, width=width, intended=intended)
        else:
            widths = width - np.arange(trials)
            view = BatchRoundView(index=r, width=int(widths.max()),
                                  intended=intended, widths=widths,
                                  active=np.arange(trials) > 0)
        edges = np.asarray(batch.select_edges_many(view), dtype=bool)
        if view.active is not None:
            edges[~view.active] = False
        delivered = batch.corrupt_many(view, edges)
        for t, single in enumerate(singles):
            if not view.trial_active(t):
                continue
            own = BatchRoundView(index=r, width=view.trial_width(t),
                                 intended=intended[t:t + 1].copy())
            own_edges = single.select_edges_many(own)
            assert np.array_equal(edges[t], own_edges[0]), (r, t)
            assert np.array_equal(delivered[t],
                                  single.corrupt_many(own, own_edges)[0])
            corrupted += int((delivered[t] != intended[t]).sum())
    return corrupted


NBD_STRATEGIES = {"random-regular": RandomRegularStrategy,
                  "matching": RoundRobinMatchingStrategy,
                  "blocks": BlockStrategy, "static": StaticStrategy,
                  "no-edges": NoEdgesStrategy}


class TestSerialBatchedParity:
    """A batch over seeds ``[s1..sk]`` equals ``k`` one-seed instances,
    the serial names among them."""

    @pytest.mark.parametrize("mode", ["corrupt", "erase"])
    def test_iid_masks_match(self, mode):
        n, alpha, seeds = 14, 0.2, [11, 22, 33]
        corrupted = assert_batch_matches_one_seed_instances(
            BatchedIIDEdgeChannel(alpha, seeds, mode=mode),
            [IIDEdgeChannel(alpha, mode=mode, seed=s) for s in seeds], n)
        assert corrupted > 0

    def test_gilbert_elliott_masks_match(self):
        n, alpha, seeds = 12, 0.15, [4, 9]
        corrupted = assert_batch_matches_one_seed_instances(
            BatchedGilbertElliottChannel(alpha, seeds),
            [GilbertElliottChannel(alpha, seed=s) for s in seeds], n,
            rounds=10, width=4)
        assert corrupted > 0

    def test_byzantine_masks_match(self):
        n, frac, seeds = 16, 0.2, [1, 2, 3, 4]
        corrupted = assert_batch_matches_one_seed_instances(
            BatchedByzantineNodeAdversary(frac, seeds),
            [ByzantineNodeAdversary(frac, seed=s) for s in seeds], n)
        assert corrupted > 0

    @pytest.mark.parametrize("attack", ["flip", "drop", "random"])
    @pytest.mark.parametrize("strategy", list(NBD_STRATEGIES))
    def test_nonadaptive_masks_match(self, strategy, attack):
        # one strategy object for the whole batch: each trial must
        # schedule with its own copy (StaticStrategy caches its graph)
        n, alpha, seeds = 16, 2 / 16, [3, 8, 21]
        make = NBD_STRATEGIES[strategy]
        corrupted = assert_batch_matches_one_seed_instances(
            BatchedNonAdaptiveAdversary(alpha, seeds, attack, make()),
            [NonAdaptiveAdversary(alpha, make(), attack, seed=s)
             for s in seeds], n)
        assert (corrupted > 0) == (strategy != "no-edges")

    def test_gilbert_elliott_stationary_rate(self):
        """The bursty channel's long-run fault fraction matches alpha (it is
        calibrated so IID and GE columns are comparable at equal alpha)."""
        n, alpha = 24, 0.2
        channel = GilbertElliottChannel(alpha, seed=13)
        # measure the pre-cap bad fraction over many rounds via the state
        channel.begin_protocol(n, 1)
        off_diag = ~np.eye(n, dtype=bool)
        fractions = []
        for r in range(400):
            view = _view(n, r)
            channel.corrupt_many(view, channel.select_edges_many(view))
            fractions.append(channel._bad[0][off_diag].mean())
        assert abs(np.mean(fractions) - alpha) < 0.02


class TestTransportErasures:
    def test_drop_positions_reach_transport(self):
        """An erase-mode channel's selected edges arrive as -1 (dropped)
        entries — the erasure positions the decoder is later told about."""
        from repro.cliquesim.network import CongestedClique
        channel = IIDEdgeChannel(0.25, mode="erase", seed=3)
        net = CongestedClique(n=12, bandwidth=8, adversary=channel)
        shadow = IIDEdgeChannel(0.25, mode="erase", seed=3)
        shadow.begin_protocol(12, 1)
        view = _view(12, 0, width=4, fill=7)
        intended = view.intended[0]
        got = net.round(intended.copy(), width=4)
        expected_mask = shadow.select_edges_many(view)[0]
        dropped = (got < 0) & (intended >= 0)
        assert expected_mask.any()
        assert np.array_equal(dropped, expected_mask & (intended >= 0))

    def test_erasure_aware_routing_counts_erasures(self):
        """A coded run under an erase channel reports erased entries through
        the decoder (RoutingResult.erased_entries > 0) and still delivers."""
        from repro.core.alltoall import make_protocol, run_protocol
        from repro.core.messages import AllToAllInstance
        channel = IIDEdgeChannel(1 / 32, mode="erase", seed=5)
        protocol = make_protocol("nonadaptive")
        instance = AllToAllInstance.random(64, width=8, seed=1)
        report = run_protocol(protocol, instance, channel,
                              bandwidth=32, seed=2)
        assert report.accuracy == 1.0


class TestCampaignParity:
    @pytest.mark.parametrize("adversary", ["nonadaptive", "iid-corrupt",
                                           "iid-erase", "gilbert-elliott",
                                           "byzantine-nodes"])
    def test_channel_campaigns_serial_vs_vmap(self, adversary,
                                              require_batched):
        # one Byzantine node at n=16: 2*floor(alpha*n)+1 corrected errors
        # must fit a routing code of length <= n, so alpha=0.13 (two
        # nodes) makes every trial unsupported
        alpha = 1 / 16 if adversary == "byzantine-nodes" else 0.08
        spec = free_grid(name=f"parity-{adversary}",
                         protocols=("nonadaptive",),
                         adversaries=(adversary,), ns=(16,),
                         alphas=(alpha,), widths=(8,), replicates=4)

        def digest(result):
            rows = []
            for row in sorted(result.rows(), key=lambda r: r["hash"]):
                row = {k: v for k, v in row.items()
                       if k not in ("wall_seconds", "recorded_unix")}
                rows.append(row)
            return json.dumps(rows, sort_keys=True)

        serial = run_campaign(spec, TrialStore(), backend="serial")
        vmap = run_campaign(spec, TrialStore(), backend="vmap")
        assert [row["status"] for row in serial.rows()] == ["ok"] * 4
        assert digest(serial) == digest(vmap)
