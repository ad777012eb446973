"""Store-row digest pins for the registry campaigns on the vmap backend.

Each pin is ``sha256("\\n".join(sorted(row_digest(r) for r in rows)))``
over a campaign's trial rows.  The serial and vmap backends agree on every
pin, so any change to routing, coding, adversaries or the batched engine
that alters a single outcome field fails here.
"""

import hashlib

import pytest

from repro.experiments import TrialStore, build_campaign, run_campaign
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
