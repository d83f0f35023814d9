"""Quality gates on the public API surface.

Every package must export a coherent, documented surface: ``__all__``
entries must resolve, public items must carry docstrings, and the
top-level package must re-export the advertised entry points.  These
tests fail fast when a refactor breaks an export or ships an undocumented
public object.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO / "tools"))

import gen_api_docs  # noqa: E402

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]

MODULES = [
    "repro.errors",
    "repro.state",
    "repro.cli",
    "repro.core.ets",
    "repro.grid.session",
    "repro.grid.feedback",
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


#: Trees whose code counts as a caller: everything in the repository but
#: the tests.
CALLER_ROOTS = ("src", "perfbench", "tools", "examples", "benchmarks")

#: Calls whose string arguments name an attribute: perfbench resolves its
#: span targets by name, and ``getattr``/``hasattr`` read one.  Any other
#: string (a checkpoint key, a trace kind) that spells a name is no caller.
NAMING_CALLS = frozenset({"Target", "getattr", "hasattr"})

#: Dataclasses whose defaulted fields are options a caller must set.
OPTION_SUFFIXES = ("Config", "Policy", "Model", "Fault", "Spec")

#: Public names kept although nothing outside the tests calls them.
UNCALLED_ALLOWED = {
    "ExponentialDecay": "carries the paper's decay Υ(t − t_xy, c); runs default to NoDecay",
    "load_checkpoint": "CI's service-smoke job reads the serve checkpoint back with it",
    "check_trace_lifecycle": "the trace-lifecycle oracle of three test modules",
    "improvement_cap": (
        "the paper's analytic ceiling on the ESC improvement; "
        "test_calibration holds measured Table 4 against it"
    ),
}

#: Public methods and properties kept although nothing outside the tests
#: reads them.
UNREAD_METHODS_ALLOWED = {
    "GridService.resume": "the checkpoint reader the kill/restore suites drive",
    "EventQueue.pop_due": (
        "the queue's one-entry dequeue in key order, which the queue-order "
        "properties check push/push_many merging through; the simulator's "
        "run loop reads the heap and the stream itself to fire runs"
    ),
    "TrustFeedback.journal": (
        "the documented way to make a session's trust durable "
        "(session.feedback.journal(root)); the kill/restore suite drives it"
    ),
    "MmppProcess.mean_rate": (
        "the long-run rate load_equivalent calibrates an MMPP to; the MMPP "
        "tests check the calibration and the sampled rate against it"
    ),
    "TrustTable.entities": (
        "the entities a table holds opinions by or about; the journal tests "
        "compare it between a live table and its recovered copy"
    ),
    "Reputation.set_context_decay": "the paper's context-dependent decay Υ(t − t_xy, c) of Ω",
    "DirectTrust.set_context_decay": "the paper's context-dependent decay Υ(t − t_xy, c) of Θ",
}

#: Public module constants kept although nothing outside the tests reads
#: them.
UNREAD_CONSTANTS_ALLOWED: dict[str, str] = {}

_OUTAGE = "the trust-outage model, which the kill/restore tests cross with outages"

#: Defaulted option fields kept although no caller outside the tests sets
#: them.
UNSET_FIELDS_ALLOWED = {
    **{
        f"TrustSourceFault.{name}": _OUTAGE
        for name in (
            "outages", "outage_mtbf", "outage_mttr", "latency_mean", "refresh_interval",
        )
    },
    **{
        f"TrustQueryConfig.{name}": _OUTAGE
        for name in (
            "timeout", "staleness_bound", "backoff",
            "failure_threshold", "cooldown", "probe_successes",
        )
    },
    **{
        f"BackoffPolicy.{name}": _OUTAGE
        for name in ("base", "factor", "max_delay", "jitter", "max_retries")
    },
    **{
        f"AdversarySpec.{name}": "an attack shape the adversary tests vary"
        for name in ("value_low", "value_high", "period")
    },
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@functools.cache
def _source_modules() -> tuple[tuple[str, ast.Module], ...]:
    """Every non-package module under ``src/repro`` and its syntax tree.

    Package ``__init__`` files only re-export, so they define nothing here.
    """
    return tuple(
        (str(path.relative_to(REPO)), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
    )


@functools.cache
def _references() -> tuple[
    frozenset[str], frozenset[str], dict[str, list[tuple[int, frozenset[str]]]]
]:
    """What the caller trees reach.

    Returns every name read, called, subclassed or taken as an attribute
    (plus the strings passed to a :data:`NAMING_CALLS` call); the subset
    reached as an attribute or through a :data:`NAMING_CALLS` string, which
    is how a method is reached (a bare name that spells a method is a
    local variable, not a call of it); and, per callee name, each call's
    positional count and keyword names.  Imports, ``__all__`` strings and
    docstrings do not count.
    """
    names: set[str] = set()
    attributes: set[str] = set()
    calls: dict[str, list[tuple[int, frozenset[str]]]] = {}
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Call) and (callee := _callee(node)):
                    calls.setdefault(callee, []).append(
                        (len(node.args), frozenset(k.arg for k in node.keywords if k.arg))
                    )
                    if callee in NAMING_CALLS:
                        attributes.update(
                            a.value for a in node.args
                            if isinstance(a, ast.Constant) and isinstance(a.value, str)
                        )
    return frozenset(names | attributes), frozenset(attributes), calls


def _public_classes() -> Iterator[tuple[str, ast.ClassDef]]:
    for module, tree in _source_modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield module, node


def _public_callables() -> dict[str, list[str]]:
    """Every module-level public function and class under ``src/repro``,
    mapped to the modules defining it."""
    found: dict[str, list[str]] = {}
    for module, tree in _source_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.setdefault(node.name, []).append(module)
    return found


def _public_methods() -> dict[str, str]:
    """``Class.method`` → module, for every public method and property of
    a public class."""
    return {
        f"{cls.name}.{item.name}": module
        for module, cls in _public_classes()
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def _public_constants() -> dict[str, str]:
    """Every public module-level assignment target → its module."""
    found: dict[str, str] = {}
    for module, tree in _source_modules():
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    found[target.id] = module
    return found


def _option_fields() -> dict[str, tuple[str, int]]:
    """``Class.field`` → (module, position among the init fields) for every
    defaulted init field of a public option dataclass (a class named
    ``*Config``, ``*Policy``, ``*Model``, ``*Fault`` or ``*Spec``)."""
    found: dict[str, tuple[str, int]] = {}
    for module, cls in _public_classes():
        is_dataclass = any(
            (isinstance(d, ast.Call) and _callee(d) == "dataclass")
            or (isinstance(d, ast.Name) and d.id == "dataclass")
            for d in cls.decorator_list
        )
        if not (is_dataclass and cls.name.endswith(OPTION_SUFFIXES)):
            continue
        position = 0
        for item in cls.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(item.annotation):
                continue
            default = item.value
            if isinstance(default, ast.Call) and _callee(default) == "field":
                keywords = {k.arg: k.value for k in default.keywords}
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                if not keywords.keys() & {"default", "default_factory"}:
                    default = None
            if default is not None:
                found[f"{cls.name}.{item.target.id}"] = (module, position)
            position += 1
    return found


def _assert_reached(unreached: dict, allowed: dict[str, str], what: str) -> None:
    """Everything unreached is allowlisted, and every allowlisted entry
    is still there and still unreached."""
    unexpected = {n: m for n, m in unreached.items() if n not in allowed}
    assert not unexpected, f"{what} with no caller outside tests: {unexpected}"
    stale = sorted(set(allowed) - set(unreached))
    assert not stale, f"allowlisted {what} now reached or gone: {stale}"


def test_every_public_name_has_a_caller():
    """A public function or class that only its own tests call is surface
    nobody uses: give it a caller or delete it."""
    referenced, _, _ = _references()
    found = _public_callables()
    uncalled = {n: m for n, m in found.items() if n not in referenced}
    _assert_reached(uncalled, UNCALLED_ALLOWED, "public names")


def test_every_public_method_has_a_caller():
    """A public method or property that only tests read is surface nobody
    uses.  A method counts as read where its name is taken as an attribute
    anywhere in the caller trees, or named to ``getattr`` and the like (a
    name set, not a call graph: it errs toward keeping)."""
    _, referenced, _ = _references()
    found = _public_methods()
    unread = {n: m for n, m in found.items() if n.split(".")[1] not in referenced}
    _assert_reached(unread, UNREAD_METHODS_ALLOWED, "public methods")


def test_every_public_constant_is_read():
    """A module constant that only tests read is a value nobody uses."""
    referenced, _, _ = _references()
    found = _public_constants()
    unread = {n: m for n, m in found.items() if n not in referenced}
    _assert_reached(unread, UNREAD_CONSTANTS_ALLOWED, "public constants")


def test_every_option_field_is_set_by_a_caller():
    """A defaulted option field that no caller sets — by keyword, or by
    position through its class name — is a knob nobody turns: its default
    is a constant, and the code serving other values is dead."""
    _, _, calls = _references()
    found = _option_fields()
    unset = {
        name: module
        for name, (module, position) in found.items()
        if not any(
            name.split(".")[1] in keywords or n_args > position
            for n_args, keywords in calls.get(name.split(".")[0], ())
        )
    }
    _assert_reached(unset, UNSET_FIELDS_ALLOWED, "option fields")


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

    def test_one_esc_formula(self):
        from repro.scheduling.policy import TrustPolicy

        assert importlib.util.find_spec("repro.scheduling.esc_models") is None
        assert "esc_model" not in {f.name for f in fields(TrustPolicy)}
        assert not hasattr(TrustPolicy, "aware_model")

    def test_des_events_are_not_cancellable(self):
        import repro.sim as sim
        import repro.sim.events as events
        from repro.sim.kernel import Simulator
        from repro.sim.queue import EventQueue

        # A pending event is a plain entry tuple: no event object exists
        # to hold a handle, so there is nothing to cancel.
        assert not hasattr(events, "Event") and "Event" not in sim.__all__
        assert not [n for n in ("cancel", "pop", "peek_time") if hasattr(EventQueue, n)]
        assert not [
            n for n in ("cancel", "step", "drain", "schedule_after") if hasattr(Simulator, n)
        ]

    def test_journal_internals_are_private(self):
        import repro.core as core

        internals = ("read_journal", "JournalReplay", "attach_journal", "detach_journal")
        assert not [n for n in internals if n in core.__all__]
        assert not [n for n in internals if hasattr(core, n)]

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
