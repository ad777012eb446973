"""Store-row digest pins for the registry campaigns on the vmap backend,
and for one-trial cells of every batched protocol on both backends.

Each pin is ``sha256("\\n".join(sorted(row_digest(r) for r in rows)))``
over a campaign's trial rows.  The serial and vmap backends agree on every
pin, so any change to routing, coding, adversaries or the batched engine
that alters a single outcome field fails here.
"""

import hashlib
import json

import pytest

from repro.experiments import (TrialStore, build_campaign, free_grid,
                               run_campaign)
from repro.sched import row_digest

PINS = [
    ("smoke", {},
     "851828a29353e325cb937da4e923ad89043d066fd4e188694c4862a0cabd520a"),
    ("figure1-ldc", {"n": 16},
     "ab9e77737170ad65b07eea3a68788b98bc9ae3fe6503605e76505c8ba5bfe6d6"),
    ("figure2-butterfly", {},
     "23d6fdb86e14eade3b89b413c50d4c72e3bddd4483783ab635002ca0c816f3dc"),
    ("figure3-grid", {},
     "6db8be535d8268c14c1aec4b1ea838e8a9b1cbcc0fab0dad0d21bfb9577eacea"),
    ("table1", {"n": 16},
     "058a165c2b8abdf3d09a67c32412dbe6c84cf342cb4d4f4d991019a6c4591216"),
    ("stochastic-iid", {"n": 32},
     "c9a22b39af2ccdd9328d35069ae5f01744dcb0ec37e39332b83cd9047a8a7d70"),
    ("stochastic-bursty", {"n": 32},
     "aeda957623516d9296979ce2dc182121a96dc15a7cf1dbfdd3a1ed94315dc3d1"),
    ("byzantine-nodes", {"n": 32},
     "8c02459418629bf217c075724c96642477ed64d2a55e4a2cf4bfb017c7de3f48"),
    # its n=128 trial routes with L=128, whose inner code is the searched
    # [24, 8, 7] code reached after targets 10, 9 and 8 fail at seed 2025
    ("headline-scaling", {},
     "7508fee918897e4cb4fa8678837dda708ad7edbb575661f46ce60096f9e969e7"),
]


def campaign_digest(name, kwargs, backend="vmap"):
    result = run_campaign(build_campaign(name, **kwargs),
                          store=TrialStore(None), backend=backend)
    blob = "\n".join(sorted(row_digest(row) for row in result.rows()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,kwargs,pin", PINS,
                         ids=[name for name, _, _ in PINS])
def test_registry_campaign_rows_match_pin(name, kwargs, pin):
    assert campaign_digest(name, kwargs) == pin


#: vmap cells that no registry campaign routes: (protocol, adversary, n,
#: alpha, pin).  Most have a routing code length that does not divide n,
#: so nodes past ``(n // L) * L`` send and receive but relay nothing; the
#: last decodes a concatenated code under declared erasures.
TAIL_PINS = [
    # L = 8: four tail nodes
    ("det-sqrt", "null", 36, 0.0,
     "d85d9136f527badfee27930139ee3ee1e82e1c3e3f5afeb5f4b97d74e7c8524b"),
    ("nonadaptive", "null", 20, 0.0,
     "6671d687241f8855102456f7e7ea82ffdd7be3ac0ee83f6b0fd5e4335fcdcb91"),
    # an erasure budget of one edge per node needs L = 9 at n=36, which
    # divides n; at n=49 it needs L = 12, leaving one tail node
    ("det-sqrt", "iid-erase", 36, 1 / 36,
     "54791e5da42400e8c391f9f6a7d2c9edaf0872e342836868b664e7d14e6d661b"),
    ("det-sqrt", "iid-erase", 49, 1 / 49,
     "2c0ce57da39541e33646308c1d3d1eea8dddb5bf4c39f370a0018074507b077f"),
    # L = 64, the Justesen-like code with k = 16: its decode calls mix rows
    # with declared erasures and erasure-free exact codewords
    ("det-logn", "iid-erase", 64, 1 / 32,
     "0585aaff35f3fbaee7578c313260a9ed5fea8aa9af1b2ea34a905ae20e8ce130"),
]


@pytest.mark.parametrize("protocol,adversary,n,alpha,pin", TAIL_PINS,
                         ids=[f"{p}-{a}-n{n}" for p, a, n, _, _ in TAIL_PINS])
def test_tail_node_cells_match_pin(protocol, adversary, n, alpha, pin,
                                   require_batched):
    # batched at 3 trials: a batched-path crash may not hide behind the
    # identical rows of the fallback to cells of one
    spec = free_grid(name="tail-pin", protocols=(protocol,),
                     adversaries=(adversary,), ns=(n,), alphas=(alpha,),
                     widths=(4,), bandwidths=(8,), replicates=3)
    result = run_campaign(spec, store=TrialStore(None), backend="vmap")
    blob = "\n".join(sorted(row_digest(row) for row in result.rows()))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == pin


#: every adversary kind of the registry, one cell each
ADVERSARY_KINDS = ("null", "adaptive", "nonadaptive", "sliding-window",
                   "targeted", "iid-corrupt", "iid-erase", "gilbert-elliott",
                   "byzantine-nodes")

#: the rows the serial protocol bodies produce: (protocol, base seed, pin)
#: over one n=16, alpha=1/16 trial per adversary kind, computed on the
#: serial backend.  The batched ports must reproduce them, so these pins
#: gate replacing the serial bodies with their ports.
SERIAL_BODY_PINS = [
    ("nonadaptive", 1,
     "2ddf6e919a1fcdfdb147597d2a6d07082fab44125f7c18b49991062394b08a21"),
    ("nonadaptive", 2,
     "0075acc91682533a2bf985fb8b292636d03b2e62e54260a76f0b1717305b4708"),
    ("det-sqrt", 1,
     "897e410d0b3b6e31a1fb75b93b421fa94df9924739268282140de7e148739e18"),
    ("det-sqrt", 2,
     "ba57e3c5aead783294f3dcdb7c31ef594fa5390a0d5de832140ce804b262c55c"),
    ("det-logn", 1,
     "6d07ab5035fc5dd9c9d86bc27a30a7aab9d7356caef1d5b286278ce4df35454e"),
    ("det-logn", 2,
     "223ed907f4b9c81c8f82bb9a44d93ae42c8b64534df2a51af163cd8c7280509f"),
    ("adaptive", 1,
     "fff5880170fbf5f9eb35e8cb87a022240cfdce06195d5f992858009a84a905b0"),
    ("adaptive", 2,
     "db2f0fa9c0db6fd639e0880e4c5c16cf9922ee27161ccc6b09c8f4acb0124a5b"),
]


def rows_digest(spec, backend):
    rows = run_campaign(spec, store=TrialStore(None), backend=backend).rows()
    assert [row["status"] for row in rows] == ["ok"] * len(rows)
    blob = "\n".join(sorted(row_digest(row) for row in rows))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def singleton_cells_digest(protocol, base_seed, backend, n=16,
                           alpha=1 / 16):
    spec = free_grid(name="serial-body-pin", protocols=(protocol,),
                     adversaries=ADVERSARY_KINDS, ns=(n,), alphas=(alpha,),
                     base_seed=base_seed)
    return rows_digest(spec, backend)


_SERIAL_BODY_IDS = [f"{p}-seed{s}" for p, s, _ in SERIAL_BODY_PINS]


@pytest.mark.parametrize("protocol,base_seed,pin", SERIAL_BODY_PINS,
                         ids=_SERIAL_BODY_IDS)
def test_serial_bodies_match_pin(protocol, base_seed, pin):
    assert singleton_cells_digest(protocol, base_seed, "serial") == pin


@pytest.mark.parametrize("protocol,base_seed,pin", SERIAL_BODY_PINS,
                         ids=_SERIAL_BODY_IDS)
def test_batched_ports_match_serial_body_pin(protocol, base_seed, pin,
                                             require_batched):
    # every cell is a singleton, and each must run its port at trials=1
    assert singleton_cells_digest(protocol, base_seed, "vmap") == pin


#: the same gate at n=64, alpha=1/32, base seed 1: (protocol, pin), one
#: trial per adversary kind, computed on the serial backend while each
#: protocol still had a serial body beside its batched port
SERIAL_BODY_PINS_N64 = [
    ("nonadaptive",
     "8b0c11c47e2ad42d27c06341d2e2020d720eeeb999fdb17c55c5ecc5653ad9d8"),
    ("det-sqrt",
     "8555094638af8a9c33120e8fe23200bd258f6eeaa41aa7a6ec8918cb62d13b23"),
    ("det-logn",
     "f992fbd1260e6b2009c49d19cf5de24701e774cd4bd3e4552d10a61c008b0606"),
    ("adaptive",
     "75776fe3c363701e5e630b384b6598e32b3d2fe7a7732443a521f26da274261c"),
]


@pytest.mark.parametrize("backend", ["serial", "vmap"])
@pytest.mark.parametrize("protocol,pin", SERIAL_BODY_PINS_N64,
                         ids=[p for p, _ in SERIAL_BODY_PINS_N64])
def test_n64_cells_match_serial_body_pin(protocol, pin, backend, request):
    if backend == "vmap":
        request.getfixturevalue("require_batched")
    assert singleton_cells_digest(protocol, 1, backend, n=64,
                                  alpha=1 / 32) == pin


#: adaptive under the adaptive adversary at n=32, width 50, alpha=1/32:
#: element ids ``((u * n + v) << width) | value`` need more headroom than
#: int64 planes have, so the sketch spec fails ``planes_supported`` and the
#: planes hold Python ints; the row hashes' 61-bit prime is evaluated in
#: Python ints too (computed on the serial backend like the pins above)
WIDE_SKETCH_PIN = \
    "e0254501bef0dd5699f2bb01f67717372f4cf45d6f9f435993ed9e2682d245ea"


@pytest.mark.parametrize("backend", ["serial", "vmap"])
def test_wide_sketch_cell_matches_pin(backend, request):
    if backend == "vmap":
        request.getfixturevalue("require_batched")
    spec = free_grid(name="wide-sketch-pin", protocols=("adaptive",),
                     adversaries=("adaptive",), ns=(32,), alphas=(1 / 32,),
                     widths=(50,), replicates=2)
    assert rows_digest(spec, backend) == WIDE_SKETCH_PIN


#: det-logn at width 12, so each message's bits span two bytes of the
#: route's rows: n=32, alpha=1/32, bandwidth 16, 3 replicates on vmap,
#: (adversary, pin), computed while the butterfly still routed values
#: packed from int64 beliefs
WIDE_DET_LOGN_PINS = [
    ("adaptive",
     "f0f4b6985f336a44c48e08a577769742278416357c1c200a23947875db9fb0c5"),
    ("iid-corrupt",
     "f24edcf07fb181d8954233ac3de7283e40bf3d58428f07ff8cef5d4b4b836b00"),
    ("nonadaptive",
     "3ea65beeb856437dd9eac0db4e0a2339d87c2589a1ef3306b0bb709e6325b0a0"),
]


@pytest.mark.parametrize("adversary,pin", WIDE_DET_LOGN_PINS,
                         ids=[a for a, _ in WIDE_DET_LOGN_PINS])
def test_wide_det_logn_cells_match_pin(adversary, pin, require_batched):
    spec = free_grid(name="wide-det-logn-pin", protocols=("det-logn",),
                     adversaries=(adversary,), ns=(32,), alphas=(1 / 32,),
                     widths=(12,), bandwidths=(16,), replicates=3)
    assert rows_digest(spec, "vmap") == pin


#: each protocol's run records (``report.extra`` and det-logn's ``trace``)
#: over four adversaries at n=16, width 4, bandwidth 8, computed while each
#: protocol still had a serial body: (protocol, pin)
DIAGNOSTICS_PINS = [
    ("nonadaptive",
     "8b6c451e3d201571695129ab16ab8e522532cce8ed081b14716f9f6d9a9baeec"),
    ("det-sqrt",
     "3e533accaf9ab485c5a4bb931e7d8d2f31cd96dc88aa9352c969c63e129ecbeb"),
    ("det-logn",
     "f8f0a6289ea7500ae2c6b95bb25944929102eb0b365289f951da05d3c968fa1d"),
    ("adaptive",
     "47ee5fdbb24c58bf9b4346e97575ba87844d75adc0852010269acb6541ceae0d"),
]


@pytest.mark.parametrize("protocol,pin", DIAGNOSTICS_PINS,
                         ids=[p for p, _ in DIAGNOSTICS_PINS])
def test_run_records_match_pin(protocol, pin):
    from repro.core.alltoall import make_protocol, run_protocol
    from repro.core.messages import AllToAllInstance
    from repro.experiments.runner import make_adversary

    records = []
    for seed, kind in enumerate(("null", "adaptive", "iid-erase",
                                 "byzantine-nodes")):
        instance = AllToAllInstance.random(16, width=4, seed=100 + seed)
        runner = make_protocol(protocol)
        report = run_protocol(runner, instance,
                              make_adversary(kind, 1 / 16, 200 + seed),
                              bandwidth=8, seed=300 + seed)
        records.append({"adversary": kind, "extra": report.extra,
                        "trace": getattr(runner, "trace", None)})
    blob = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == pin


def _nbd_adversary(case, seed):
    from repro.adversary import (BlockStrategy, NoEdgesStrategy,
                                 NonAdaptiveAdversary,
                                 RoundRobinMatchingStrategy, StaticStrategy)
    strategies = {"matching": RoundRobinMatchingStrategy,
                  "blocks": BlockStrategy, "static": StaticStrategy,
                  "no-edges": NoEdgesStrategy}
    if case in strategies:
        return NonAdaptiveAdversary(1 / 16, strategies[case](), seed=seed)
    return NonAdaptiveAdversary(1 / 16, content_attack=case, seed=seed)


#: ``NonAdaptiveAdversary`` paths no campaign pin covers: each edge
#: strategy but the default, and each content attack but the default
#: ``flip``, at n=16, width 4, bandwidth 8, alpha=1/16.  Each pin hashes
#: ``(rounds, bits_sent, correct_entries, entries_corrupted_in_transit)``
#: of one run, then every round's fault-edge mask and delivered matrix,
#: then the belief matrix, so that adversaries whose counters agree (det-sqrt
#: corrects each schedule's one matching a round) still read apart:
#: (protocol, case, pin)
NBD_PINS = [
    ("det-sqrt", "matching",
     "63cbfb7745937ee3b3eed77048896c2e3d557a731e7c6646684bbf1088d87fbe"),
    ("det-sqrt", "blocks",
     "a6ba59c2fd45bdf11cc822051c6c197340fd9a24874e30fc8a452ccde171db63"),
    ("det-sqrt", "static",
     "b46c5e0e8d9a31a6204843b7c121277c515eafc7f6966cb66c8ae90c29b4aeeb"),
    ("det-sqrt", "no-edges",
     "e6654bc4b38c487db3dd4fa96722109b2ded9ae3d324587fc0bbd8e954aa9c6b"),
    ("det-sqrt", "drop",
     "8b08f8fbcd63bfeac810bf17230ccea33c2860f6ce1bdd23a46beba004411f3f"),
    ("det-sqrt", "random",
     "ef510cf7d401366faa50b2aa91c7f89d3b1d80755ea2867f0c8addaf6128bdd4"),
    ("naive", "matching",
     "b3c18180454d43eeb73323d731bf665026a09a9a70f422dc0b0c2a2f328ebc7c"),
    ("naive", "blocks",
     "267629787c6aecb2ef0fd480ca0da9c839d5ca2a036558015cc19fdeb05a7581"),
    ("naive", "static",
     "17af086f5f14d31e7ecb4226c9e9194dd809984caa71fd0590f8bf91149d66b7"),
    ("naive", "no-edges",
     "848ccae2ae7f45ded1ce1526d460ac63aaf5a332065edb9930ffc59d7f1ee39b"),
    ("naive", "drop",
     "a6cab4a6261fd2c8caffbe75c0988b66cb098c73488ab50e75b17356ceda482b"),
    ("naive", "random",
     "56f654361e55deecdc99b0c1394a05217baf8577237baefee5bfe74060c17c8c"),
]


def nbd_digest(protocol, case):
    """The pinned digest of one ``NBD_PINS`` run, and its corrupted-entry
    count."""
    import numpy as np

    from repro.baseline.naive import NaiveAllToAll
    from repro.cliquesim import CongestedClique
    from repro.core.alltoall import make_protocol
    from repro.core.messages import AllToAllInstance, verify_beliefs

    index = [c for _, c, _ in NBD_PINS].index(case)
    runner = NaiveAllToAll() if protocol == "naive" else \
        make_protocol(protocol)
    instance = AllToAllInstance.random(16, width=4, seed=100 + index)
    net = CongestedClique(16, bandwidth=8,
                          adversary=_nbd_adversary(case, 200 + index),
                          record_full_history=True)
    beliefs = np.asarray(runner.run(instance, net, seed=300 + index),
                         dtype=np.int64)
    outcome = repr((net.rounds_used, net.bits_sent,
                    verify_beliefs(instance, beliefs), net.entries_corrupted))
    digest = hashlib.sha256(outcome.encode("utf-8"))
    for record in net.history:
        digest.update(np.ascontiguousarray(record.fault_edges).tobytes())
        digest.update(np.ascontiguousarray(record.delivered).tobytes())
    digest.update(beliefs.tobytes())
    return digest.hexdigest(), net.entries_corrupted


@pytest.mark.parametrize("protocol,case,pin", NBD_PINS,
                         ids=[f"{p}-{c}" for p, c, _ in NBD_PINS])
def test_nonadaptive_adversary_paths_match_pin(protocol, case, pin):
    digest, corrupted = nbd_digest(protocol, case)
    if case != "no-edges":
        assert corrupted > 0
    assert digest == pin


#: fault-free det-logn on a ``CongestedClique`` that records full history,
#: which keeps staging every wave round where the fault-free clique without
#: full history only books them: n=64, width 2, bandwidth 8, instance seed
#: 7, run seed 1.  The pin hashes ``(rounds, bits_sent, correct_entries,
#: entries_corrupted_in_transit)``, then every round's intended and
#: delivered matrices, then the belief matrix.
FULL_HISTORY_PIN = \
    "5e0c69aa4466143cd40e355ab3c76befcb7f8a77468d022b01e8418e1473d65f"


def test_fault_free_full_history_run_matches_pin():
    import numpy as np

    from repro.cliquesim import CongestedClique
    from repro.core.alltoall import make_protocol
    from repro.core.messages import AllToAllInstance, verify_beliefs

    instance = AllToAllInstance.random(64, width=2, seed=7)
    net = CongestedClique(64, bandwidth=8, record_full_history=True)
    beliefs = np.asarray(make_protocol("det-logn").run(instance, net, seed=1),
                         dtype=np.int64)
    outcome = (net.rounds_used, net.bits_sent,
               verify_beliefs(instance, beliefs), net.entries_corrupted)
    assert outcome == (12, 193536, 4096, 0)
    digest = hashlib.sha256(repr(outcome).encode("utf-8"))
    for record in net.history:
        digest.update(np.ascontiguousarray(record.intended).tobytes())
        digest.update(np.ascontiguousarray(record.delivered).tobytes())
    digest.update(beliefs.tobytes())
    assert digest.hexdigest() == FULL_HISTORY_PIN
