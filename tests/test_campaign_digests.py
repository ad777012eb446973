"""Store-row digest pins for the registry campaigns on the vmap backend.

Each pin is ``sha256("\\n".join(sorted(row_digest(r) for r in rows)))``
over a campaign's trial rows.  The serial and vmap backends agree on every
pin, so any change to routing, coding, adversaries or the batched engine
that alters a single outcome field fails here.
"""

import hashlib

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
    # serial fallback's identical rows
    spec = free_grid(name="tail-pin", protocols=(protocol,),
                     adversaries=(adversary,), ns=(n,), alphas=(alpha,),
                     widths=(4,), bandwidths=(8,), replicates=3)
    result = run_campaign(spec, store=TrialStore(None), backend="vmap")
    blob = "\n".join(sorted(row_digest(row) for row in result.rows()))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == pin
