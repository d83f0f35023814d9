"""Quality gates on the public API surface.

Every package must export a coherent, documented surface: ``__all__``
entries must resolve, public items must carry docstrings, and the
top-level package must re-export the advertised entry points.  These
tests fail fast when a refactor breaks an export or ships an undocumented
public object.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import gen_api_docs  # noqa: E402

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]

MODULES = [
    "repro.errors",
    "repro.cli",
    "repro.core.ets",
    "repro.grid.session",
    "repro.grid.behavior",
    "repro.sim.mmpp",
    "repro.scheduling.constraints",
    "repro.faults.model",
    "repro.faults.injector",
    "repro.faults.retry",
    "repro.obs.metrics",
    "repro.obs.export",
    "repro.obs.invariants",
    "repro.obs.profile",
    "repro.scheduling.engine",
    "repro.scheduling.esc_models",
    "repro.service.admission",
    "repro.service.backpressure",
    "repro.service.checkpoint",
    "repro.service.replay",
    "repro.service.service",
    "repro.security.plan",
    "repro.experiments.parallel",
    "repro.experiments.series",
    "repro.experiments.validation",
    "repro.analysis.calibration",
    "repro.analysis.collusion",
    "repro.analysis.significance",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestPackageSurface:
    def test_has_all(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        assert module.__all__, f"{package} exports nothing"

    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{package} declares unresolvable exports: {missing}"

    def test_exports_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isroutine(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, f"{package} exports undocumented: {undocumented}"

    def test_package_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()


def test_package_list_is_discovered():
    assert "repro.trustfaults" in PACKAGES
    assert gen_api_docs.PACKAGES == PACKAGES


def test_api_docs_are_current():
    committed = Path(gen_api_docs.OUT).read_text(encoding="utf-8")
    assert committed == gen_api_docs.render(), (
        "docs/API.md is stale; run PYTHONPATH=src python tools/gen_api_docs.py"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


class TestTopLevelEntryPoints:
    def test_quickstart_surface(self):
        import repro

        for name in (
            "ScenarioSpec",
            "materialize",
            "TrustPolicy",
            "TRMScheduler",
            "TrustLevel",
            "make_heuristic",
        ):
            assert hasattr(repro, name)

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_cli_entry_point_resolves(self):
        from repro.cli import main

        assert callable(main)

    def test_scheduling_exports_one_production_kernel_per_heuristic(self):
        import repro.scheduling as scheduling

        assert importlib.util.find_spec("repro.scheduling.scale") is None
        assert importlib.util.find_spec("repro.scheduling.fast") is None
        assert not [n for n in scheduling.__all__ if n.startswith("Fast")]
        assert "reference_names" not in scheduling.__all__
        assert not [n for n in scheduling.__all__ if n.lower().startswith(("heap", "jit"))]
        for name in ("MinMinHeuristic", "MaxMinHeuristic", "SufferageHeuristic"):
            assert name in scheduling.__all__

    def test_one_durable_trust_format(self):
        import repro.core as core
        import repro.core.store as store
        import repro.service.checkpoint as checkpoint
        from repro.grid.session import GridSession

        assert importlib.util.find_spec("repro.core.persistence") is None
        retired = (
            "snapshot_trust_store",
            "restore_trust_store",
            "load_manifest",
            "RestoredTrustPlane",
            "TrustStoreError",
            "save_trust_state",
            "load_trust_state",
            "trust_table_to_dict",
            "trust_table_from_dict",
        )
        assert not [n for n in retired if hasattr(core, n)]
        assert not [n for n in ("attach_trust_store", "resolve_trust_store")
                    if hasattr(checkpoint, n)]
        assert not hasattr(GridSession, "snapshot_trust")
        # The base-segment codec knows nothing of the columnar shard layout.
        assert not hasattr(store, "ColumnarOpinionStore")
        assert not hasattr(store, "_Shard")
        restore = inspect.signature(store.restore_trust_store)
        assert "verify" not in restore.parameters
        assert "DurableTrustPlane" in core.__all__

    def test_one_des_programming_model(self):
        import repro.experiments as experiments
        import repro.sim as sim
        from repro.sim.stats import RunningStats

        assert importlib.util.find_spec("repro.sim.process") is None
        assert importlib.util.find_spec("repro.sim.resources") is None
        assert importlib.util.find_spec("repro.experiments.cache") is None
        assert "TimeWeightedStats" not in sim.__all__
        assert not hasattr(RunningStats, "merge")
        assert "improvement_vs_load_series" not in experiments.__all__

    def test_one_trust_evaluator(self):
        import argparse

        from repro.cli import build_parser
        from repro.core.engine import TrustEngine
        from repro.core.reputation import Reputation

        assert importlib.util.find_spec("repro.core.columnar") is None
        assert importlib.util.find_spec("repro.experiments.trustbench") is None
        assert not hasattr(TrustEngine, "gamma_matrix")
        assert not hasattr(Reputation, "evaluate_many")
        assert not hasattr(Reputation, "columnar_store")
        subcommands = next(
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "bench" not in subcommands

    def test_error_hierarchy_rooted(self):
        import repro.errors as errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)
