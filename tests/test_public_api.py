"""Public-API smoke tests: everything the README advertises imports and
carries a docstring (a downstream user's first contact with the library)."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.adversary",
    "repro.analysis",
    "repro.baseline",
    "repro.cliquesim",
    "repro.coding",
    "repro.core",
    "repro.coverfree",
    "repro.fields",
    "repro.hashing",
    "repro.sketch",
    "repro.utils",
    "repro.cli",
    "repro.experiments",
    "repro.experiments.spec",
    "repro.experiments.runner",
    "repro.experiments.store",
    "repro.experiments.aggregate",
    "repro.experiments.registry",
    "repro.experiments.report",
    "repro.obs.tracing",
    "repro.core.applications",
    "repro.core.bandwidth_reduction",
    "repro.core.reduction",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_with_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", [
    "repro.adversary", "repro.analysis", "repro.baseline",
    "repro.cliquesim", "repro.coding", "repro.core", "repro.coverfree",
    "repro.experiments", "repro.fields", "repro.hashing", "repro.sketch",
    "repro.utils", "repro.sched", "repro.faults",
])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


#: packages that export through ``repro._lazy_exports``: a stale name in
#: their tables fails only when first read, so these tests read them all
LAZY_PACKAGES = [
    "repro.adversary", "repro.cliquesim", "repro.coding", "repro.core",
    "repro.coverfree", "repro.faults", "repro.fields", "repro.hashing",
    "repro.sched", "repro.sketch", "repro.utils",
]


@pytest.mark.parametrize("module_name", LAZY_PACKAGES)
def test_lazy_package_lists_its_exports(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} exports nothing"
    missing = set(module.__all__) - set(dir(module))
    assert not missing, f"dir({module_name}) lacks {sorted(missing)}"
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_readme_quickstart_symbols():
    from repro.adversary import AdaptiveAdversary            # noqa: F401
    from repro.core import AllToAllInstance, run_protocol    # noqa: F401
    from repro.core.det_sqrt import DetSqrtAllToAll          # noqa: F401


def test_every_protocol_has_name_and_doc():
    from repro.baseline import (FischerParterStyleAllToAll, NaiveAllToAll,
                                RetransmissionAllToAll)
    from repro.core.alltoall import PROTOCOLS, make_protocol
    protocols = [make_protocol(name) for name in PROTOCOLS]
    protocols += [NaiveAllToAll(), RetransmissionAllToAll(),
                  FischerParterStyleAllToAll()]
    names = set()
    for protocol in protocols:
        assert protocol.name and protocol.name != "abstract"
        assert type(protocol).__doc__
        assert protocol.name not in names, "duplicate protocol name"
        names.add(protocol.name)


def test_version():
    import repro
    assert repro.__version__
