"""A campaign imports only what it runs.

Every campaign repetition and every sharded worker starts a fresh
interpreter, so a module a campaign imports but never runs costs every
start.  Each case runs one campaign in a new interpreter and lists the
modules that ``run_campaign`` imported; numpy and ``repro.experiments``
load before the snapshot, so what numpy imports up front does not count.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

CAMPAIGN = """
import json, sys
import numpy
from repro.experiments import TrialStore, free_grid, run_campaign
spec = free_grid(name="cold-start", protocols=("det-logn",),
                 adversaries=("null",), ns=(16,), alphas=(0.0,),
                 bandwidths=(16,), replicates={replicates})
before = set(sys.modules)
result = run_campaign(spec, store=TrialStore(None), backend="vmap")
statuses = [row["status"] for row in result.rows()]
print(json.dumps([statuses, sorted(set(sys.modules) - before)]))
"""

#: a batched det-logn cell without faults runs none of these
NOT_RUN_BY_DET_LOGN = (
    "repro.coverfree",          # cover-free routing mode only
    "repro.adversary.nonadaptive",  # adversaries of other cells
    "repro.adversary.strategies",
    "repro.faults.channels",
    "repro.core.adaptive",      # the Theorem 1.3 compiler
    "repro.sketch",
    "repro.coding.reed_muller",
    "repro.sched.dispatcher",   # the sharded backend
    "repro.sched.worker",
    "repro.core.applications",
    "repro.core.compiler",
    "numpy.ma",
)


def campaign_imports(replicates: int):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", CAMPAIGN.format(replicates=replicates)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    statuses, imported = json.loads(out.stdout.strip().splitlines()[-1])
    assert statuses == ["ok"] * replicates
    return set(imported)


def test_batched_det_logn_cell_imports_only_its_own_stack():
    imported = campaign_imports(replicates=2)
    assert "repro.core.vmapped" in imported  # the cell did run batched
    assert not imported & set(NOT_RUN_BY_DET_LOGN), \
        sorted(imported & set(NOT_RUN_BY_DET_LOGN))


def test_singleton_cell_runs_batched():
    # a one-trial cell runs its batched port at trials=1: the serial
    # protocol bodies never load
    imported = campaign_imports(replicates=1)
    assert "repro.core.vmapped" in imported
    assert "repro.core.alltoall" not in imported
    assert not imported & set(NOT_RUN_BY_DET_LOGN), \
        sorted(imported & set(NOT_RUN_BY_DET_LOGN))
