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

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.grid",
    "repro.sim",
    "repro.workloads",
    "repro.scheduling",
    "repro.faults",
    "repro.obs",
    "repro.security",
    "repro.metrics",
    "repro.experiments",
    "repro.analysis",
    "repro.service",
]

MODULES = [
    "repro.errors",
    "repro.cli",
    "repro.core.ets",
    "repro.core.persistence",
    "repro.grid.session",
    "repro.grid.behavior",
    "repro.sim.process",
    "repro.sim.resources",
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
    "repro.scheduling.fast",
    "repro.service.admission",
    "repro.service.backpressure",
    "repro.service.checkpoint",
    "repro.service.replay",
    "repro.service.service",
    "repro.security.plan",
    "repro.experiments.cache",
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
        kernels = sorted(n for n in scheduling.__all__ if n.startswith("Fast"))
        assert kernels == [
            "FastMaxMinHeuristic", "FastMinMinHeuristic", "FastSufferageHeuristic",
        ]
        assert not [n for n in scheduling.__all__ if n.lower().startswith(("heap", "jit"))]

    def test_error_hierarchy_rooted(self):
        import repro.errors as errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)
