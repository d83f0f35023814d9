"""Checkpoint/restore: schema validation, file round-trips, and the
kill-and-restore property — a crash at any window boundary recovers with
settled accounting identical to the uninterrupted run."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ServiceKilled
from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_policies
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    FaultModel,
    MachineFailureModel,
    TaskFailureModel,
)
from repro.faults.retry import RetryPolicy
from repro.grid.behavior import BehaviorModel
from repro.grid.feedback import TrustFeedback
from repro.obs.metrics import MetricsRegistry
from repro.scheduling import TRMScheduler, make_heuristic
from repro.cli import main
from repro.service import AdmissionPolicy, GridService, ServiceConfig
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    save_checkpoint,
    validate_checkpoint,
)
from repro.trustfaults.model import TrustFaultModel, TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource
from repro.workloads.scenario import ScenarioSpec, materialize

FAULTS = FaultModel(
    tasks=TaskFailureModel(default_crash_prob=0.15),
    machines=MachineFailureModel(mtbf=4000.0, mttr=400.0),
)


#: The trust-source axis of the kill/restore properties: no source, a dead
#: one, one down in fixed windows, and a random up-down process whose
#: timeline is drawn lazily from the same RNG as the answer latencies.
TRUST_FAULTS = {
    "none": None,
    "blackout": TrustSourceFault(blackout=True),
    "windows": TrustSourceFault(outages=((500.0, 1400.0), (2600.0, 3300.0))),
    "random": TrustSourceFault(
        outage_mtbf=600.0, outage_mttr=150.0, latency_mean=0.5
    ),
}


def build_service(
    scenario,
    *,
    blackout=False,
    trust_fault=None,
    metrics=None,
    on_complete=None,
    config=None,
):
    """A deterministic faulted service; construct one per run/resume."""
    aware, _ = paper_policies()
    if blackout:
        trust_fault = TRUST_FAULTS["blackout"]
    trust_source = (
        ResilientTrustSource.from_model(
            scenario.grid, TrustFaultModel(table=trust_fault), rng=2
        )
        if trust_fault is not None
        else None
    )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        aware,
        make_heuristic("min-min"),
        batch_interval=PAPER_BATCH_INTERVAL,
        faults=FaultInjector(FAULTS, rng=3),
        retry=RetryPolicy(backoff_base=30.0),
        metrics=metrics,
        trust_source=trust_source,
        on_complete=on_complete,
    )
    return GridService(scheduler, config)


def assert_same_settlement(resumed, baseline):
    assert resumed.schedule.records == baseline.schedule.records
    assert resumed.schedule.rejected == baseline.schedule.rejected
    assert (
        resumed.schedule.rejection_reasons
        == baseline.schedule.rejection_reasons
    )
    assert resumed.schedule.dropped == baseline.schedule.dropped
    assert resumed.schedule.failures == baseline.schedule.failures
    for ours, theirs in zip(
        resumed.schedule.machine_states, baseline.schedule.machine_states
    ):
        assert ours.available_time == theirs.available_time
        assert ours.busy_time == theirs.busy_time


class TestValidation:
    def test_rejects_non_dicts_and_foreign_schemas(self):
        with pytest.raises(CheckpointError):
            validate_checkpoint([])
        with pytest.raises(CheckpointError):
            validate_checkpoint({"schema": "something/else"})

    def test_rejects_missing_keys(self):
        with pytest.raises(CheckpointError, match="missing keys"):
            validate_checkpoint({"schema": CHECKPOINT_SCHEMA})

    def test_rejects_time_travel(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        payload["next_window"] = payload["clock"] - 1.0
        with pytest.raises(CheckpointError, match="precedes"):
            validate_checkpoint(payload)

    def test_rejects_malformed_records(self, medium_scenario):
        payload = kill(medium_scenario, 3)
        assert payload["records"], "need at least one settled record to mangle"
        (next(iter(payload["records"].values()))).pop("eec")
        with pytest.raises(CheckpointError, match="completion record"):
            validate_checkpoint(payload)

    @pytest.mark.parametrize(
        "mutate,key",
        [
            (lambda p: p.update(epoch="1"), "epoch"),
            (lambda p: p.update(clock=None), "clock"),
            (lambda p: p["counters"].update(submitted=None), "counters.submitted"),
            (
                lambda p: next(iter(p["records"].values())).update(eec="1.0"),
                r"records\[\d+\]\.eec",
            ),
            (lambda p: p.update(records=[]), "records"),
            (lambda p: p.update(pending=[1, "a"]), r"pending\[1\]"),
            (
                lambda p: p["machines"][0].update(available_time="soon"),
                r"machines\[0\]\.available_time",
            ),
            (lambda p: p.update(next_window=float("nan")), "next_window"),
        ],
        ids=[
            "string-epoch",
            "null-clock",
            "null-counter",
            "string-record-field",
            "records-as-list",
            "string-pending-index",
            "string-machine-time",
            "nan-next-window",
        ],
    )
    def test_ill_typed_values_are_refused_by_key(self, medium_scenario, mutate, key):
        payload = kill(medium_scenario, 3)
        assert payload["records"], "need at least one settled record to mangle"
        mutate(payload)
        with pytest.raises(CheckpointError, match=rf"checkpoint {key} must be"):
            validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=rf"checkpoint {key} must be"):
            build_service(medium_scenario).resume(payload, medium_scenario.requests)

    def test_legacy_trust_store_sidecar_is_refused(self, medium_scenario):
        # A payload from before the durable trust plane carried its trust
        # state in a ``trust_store`` sidecar; resuming it would silently
        # drop that state, so any unknown top-level key is refused.
        payload = kill(medium_scenario, 1)
        payload["trust_store"] = {
            "schema": "repro.trust.store/v1",
            "manifest": "trust/manifest.json",
            "sha256": "0" * 64,
        }
        with pytest.raises(CheckpointError, match="trust_store"):
            validate_checkpoint(payload)


def kill(scenario, window, **kwargs):
    with pytest.raises(ServiceKilled) as exc:
        build_service(scenario, **kwargs).serve(
            scenario.requests, kill_after_window=window
        )
    return exc.value.checkpoint


def fresh_scenario():
    """A scenario of its own: a feedback run evolves the grid's trust."""
    return materialize(ScenarioSpec(n_tasks=40, n_machines=4, target_load=3.0), seed=9)


def feedback_for(scenario):
    return TrustFeedback(
        scenario.grid, BehaviorModel.uniform(0.3), np.random.default_rng(4)
    ).bind(scenario.requests)


class TestMalformedSections:
    """The optional ``trust_plane`` and ``feedback`` sections are refused
    by key, by validation and by resume alike."""

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (
                lambda p: p.update(trust_plane={}),
                r"trust_plane \(keys off by \['breaker', 'degraded', 'now', 'rng', "
                r"'tc_dirty', 'tc_memo', 'timeline'\]\)",
            ),
            (
                lambda p: p.update(trust_plane={"now": "x"}),
                r"trust_plane \(keys off by \['breaker', 'degraded', 'rng', "
                r"'tc_dirty', 'tc_memo', 'timeline'\]\)",
            ),
            (lambda p: p["trust_plane"].update(now="x"), "checkpoint trust_plane.now must be"),
            (lambda p: p.update(trust_plane=[]), "checkpoint trust_plane must be"),
            (
                lambda p: p["trust_plane"]["breaker"].update(state="ajar"),
                r"checkpoint trust_plane.breaker.state must be one of",
            ),
            (
                lambda p: p["trust_plane"]["breaker"].update(state=[]),
                r"checkpoint trust_plane.breaker.state must be one of",
            ),
            (
                lambda p: p["trust_plane"]["breaker"].update(opened_at="x"),
                "checkpoint trust_plane.breaker.opened_at must be",
            ),
            (lambda p: p["trust_plane"].update(rng=7), "checkpoint trust_plane.rng must be"),
        ],
        ids=[
            "empty", "only-string-now", "string-now", "list",
            "unknown-breaker-state", "list-breaker-state", "string-opened-at",
            "int-rng",
        ],
    )
    def test_trust_plane_section(self, medium_scenario, mutate, match):
        payload = kill(medium_scenario, 2, blackout=True)
        mutate(payload)
        with pytest.raises(CheckpointError, match=match):
            validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=match):
            build_service(medium_scenario, blackout=True).resume(
                payload, medium_scenario.requests
            )

    def test_trust_plane_rng_state_is_refused_on_resume(self, medium_scenario):
        payload = kill(medium_scenario, 2, blackout=True)
        payload["trust_plane"]["rng"] = {"bit_generator": "PCG64"}
        validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=r"trust_plane\) cannot be restored: rng state"):
            build_service(medium_scenario, blackout=True).resume(
                payload, medium_scenario.requests
            )

    @pytest.mark.parametrize(
        "trust,mutate,match",
        [
            (
                "blackout",
                lambda p: p["trust_plane"]["tc_memo"].append([99, [0]]),
                r"trust_plane\).*memo keys \[\[99, \[0\]\]\]",
            ),
            (
                "blackout",
                lambda p: p["trust_plane"]["tc_memo"].append([0, [1, 0]]),
                r"memo keys \[\[0, \[1, 0\]\]\]",
            ),
            (
                "blackout",
                lambda p: p["exclusions"].update({"0": [7]}),
                r"exclusions \{0: \[7\]\}",
            ),
            (
                "blackout",
                lambda p: p["trust_plane"].update(
                    timeline={"cursor": 1.0, "down_starts": [], "down_ends": []}
                ),
                "has no random outage process",
            ),
            (
                "random",
                lambda p: p["trust_plane"].update(timeline=None),
                "has a random outage process",
            ),
            (
                "random",
                lambda p: p["trust_plane"].update(
                    timeline={"cursor": 1.0, "down_starts": [5.0], "down_ends": [2.0]}
                ),
                "not ordered",
            ),
        ],
        ids=[
            "memo-cd-off-grid", "memo-unsorted-activities", "machine-off-grid",
            "timeline-without-process", "process-without-timeline",
            "unordered-timeline",
        ],
    )
    def test_pricing_state_is_refused_on_resume(self, medium_scenario, trust, mutate, match):
        fault = TRUST_FAULTS[trust]
        payload = kill(medium_scenario, 2, trust_fault=fault)
        mutate(payload)
        validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=match):
            build_service(medium_scenario, trust_fault=fault).resume(
                payload, medium_scenario.requests
            )

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda p: p.update(feedback={}), r"feedback \(keys off by \['published', 'rng'\]\)"),
            (lambda p: p.update(feedback=[]), "checkpoint feedback must be"),
            (lambda p: p["feedback"].update(published=["1"]), r"checkpoint feedback.published\[0\] must be"),
            (lambda p: p["feedback"].update(rng=None), "checkpoint feedback.rng must be"),
        ],
        ids=["empty", "list", "string-count", "null-rng"],
    )
    def test_feedback_section(self, mutate, match):
        scenario = fresh_scenario()
        payload = kill(scenario, 2, on_complete=feedback_for(scenario))
        mutate(payload)
        with pytest.raises(CheckpointError, match=match):
            validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=match):
            build_service(scenario, on_complete=feedback_for(scenario)).resume(
                payload, scenario.requests
            )

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda s: s.update(published=s["published"][1:]), "publish counts"),
            (lambda s: s["published"].__setitem__(0, -1), "publish counts"),
            (lambda s: s.update(rng={"bit_generator": "PCG64"}), "feedback state"),
        ],
        ids=["one-count-short", "negative-count", "partial-rng"],
    )
    def test_feedback_state_is_refused_on_resume(self, mutate, match):
        scenario = fresh_scenario()
        payload = kill(scenario, 2, on_complete=feedback_for(scenario))
        mutate(payload["feedback"])
        validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=match):
            build_service(scenario, on_complete=feedback_for(scenario)).resume(
                payload, scenario.requests
            )


class TestFileRoundTrip:
    def test_save_load(self, tmp_path, medium_scenario):
        payload = kill(medium_scenario, 1)
        path = save_checkpoint(payload, tmp_path / "svc.json")
        assert load_checkpoint(path) == json.loads(json.dumps(payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.json")

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(bad)


class TestKillAndRestore:
    def test_fixed_boundaries(self, medium_scenario):
        baseline = build_service(medium_scenario).serve(
            medium_scenario.requests
        )
        for window in (1, 2, 3):
            payload = json.loads(json.dumps(kill(medium_scenario, window)))
            resumed = build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )
            assert_same_settlement(resumed, baseline)

    def test_restore_through_trust_blackout(self, medium_scenario):
        # Ground-truth commits fill the trust-cost memo unguarded, and a
        # memo hit skips the dead source's query: a resume that dropped
        # the memo priced degraded where the uninterrupted run did not.
        baseline = build_service(medium_scenario, blackout=True).serve(
            medium_scenario.requests
        )
        for window in (1, 2, 3, 4):
            payload = json.loads(
                json.dumps(kill(medium_scenario, window, blackout=True))
            )
            assert "trust_plane" in payload
            resumed = build_service(medium_scenario, blackout=True).resume(
                payload, medium_scenario.requests
            )
            assert_same_settlement(resumed, baseline)

    def test_restore_through_random_trust_outages(self, medium_scenario):
        fault = TRUST_FAULTS["random"]
        metrics = MetricsRegistry()
        service = build_service(medium_scenario, trust_fault=fault, metrics=metrics)
        baseline = service.serve(medium_scenario.requests)
        source = service.scheduler.trust_source
        assert metrics.counter("costs.degraded_rows").value > 0
        assert baseline.windows > 2
        for window in range(1, baseline.windows):
            payload = json.loads(
                json.dumps(kill(medium_scenario, window, trust_fault=fault))
            )
            assert payload["trust_plane"]["timeline"] is not None
            resumed_service = build_service(medium_scenario, trust_fault=fault)
            resumed = resumed_service.resume(payload, medium_scenario.requests)
            assert_same_settlement(resumed, baseline)
            assert (
                resumed_service.scheduler.trust_source.state_dict()
                == source.state_dict()
            )

    def test_counters_resume(self, medium_scenario):
        baseline = build_service(medium_scenario).serve(
            medium_scenario.requests
        )
        payload = kill(medium_scenario, 2)
        resumed = build_service(medium_scenario).resume(
            payload, medium_scenario.requests
        )
        assert resumed.submitted == baseline.submitted
        assert resumed.admitted == baseline.admitted
        assert resumed.windows == baseline.windows


class TestResumeGuards:
    def test_heuristic_mismatch(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        payload["heuristic"] = "sufferage"
        with pytest.raises(CheckpointError, match="heuristic"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_retired_kernel_alias_refused(self, medium_scenario):
        # Checkpoints stamped with the retired ``min-min-fast`` alias do
        # not resume under ``min-min``: the names must match exactly.
        payload = kill(medium_scenario, 1)
        payload["heuristic"] = "min-min-fast"
        with pytest.raises(CheckpointError, match="'min-min-fast'"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_trust_epoch_mismatch(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        payload["trust_epoch"] = payload["trust_epoch"] + 1
        with pytest.raises(CheckpointError, match="trust table"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_attempt_counts_must_be_one_based(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        payload["attempts"]["0"] = 0
        with pytest.raises(CheckpointError, match="attempts of request 0"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_record_completing_before_its_start_is_refused(self, medium_scenario):
        payload = kill(medium_scenario, 3)
        key, record = next(iter(payload["records"].items()))
        record["completion_time"] = record["start_time"] - 1.0
        validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=rf"records\[{key}\].*precede"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_failure_with_attempt_zero_is_refused(self, medium_scenario):
        payload = kill(medium_scenario, 3)
        payload["failures"][0]["attempt"] = 0
        validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=r"failures\[0\].*attempt 0"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_unknown_failure_kind_is_refused(self, medium_scenario):
        payload = kill(medium_scenario, 3)
        payload["failures"][0]["kind"] = "bogus"
        match = r"checkpoint failures\[0\]\.kind must be one of"
        with pytest.raises(CheckpointError, match=match):
            validate_checkpoint(payload)
        with pytest.raises(CheckpointError, match=match):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_workload_mismatch(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        with pytest.raises(CheckpointError, match="absent"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests[:1]
            )

    def test_trust_plane_presence_must_match(self, medium_scenario):
        payload = kill(medium_scenario, 1)
        with pytest.raises(CheckpointError, match="trust-plane"):
            build_service(medium_scenario, blackout=True).resume(
                payload, medium_scenario.requests
            )

    def test_feedback_section_without_feedback_hook(self):
        scenario = fresh_scenario()
        payload = kill(scenario, 2, on_complete=feedback_for(scenario))
        assert "feedback" in payload
        with pytest.raises(CheckpointError, match="carries feedback state"):
            build_service(scenario).resume(payload, scenario.requests)

    def test_feedback_hook_without_feedback_section(self, medium_scenario):
        payload = kill(medium_scenario, 2)
        with pytest.raises(CheckpointError, match="no feedback state"):
            build_service(
                medium_scenario, on_complete=feedback_for(medium_scenario)
            ).resume(payload, medium_scenario.requests)


class TestKillAndRestoreProperty:
    """Satellite 3: the round-trip holds at *random* window boundaries."""

    @settings(max_examples=24, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=6),
        window=st.integers(min_value=1, max_value=4),
        trust=st.sampled_from(sorted(TRUST_FAULTS)),
    )
    def test_random_boundary_recovers_exactly(self, seed, window, trust):
        spec = ScenarioSpec(n_tasks=30, n_machines=4, target_load=3.0)
        scenario = materialize(spec, seed=seed)
        fault = TRUST_FAULTS[trust]
        completed = []

        def hook(record):
            completed.append((record.request_index, record.completion_time))

        baseline = build_service(
            scenario, trust_fault=fault, on_complete=hook
        ).serve(scenario.requests)
        uninterrupted, completed[:] = list(completed), []
        try:
            payload = kill(scenario, window, trust_fault=fault, on_complete=hook)
        except pytest.fail.Exception:
            # The run drained before the kill window — nothing to restore,
            # which is itself a pass (the service just finished).
            return
        payload = json.loads(json.dumps(payload))
        resumed = build_service(
            scenario, trust_fault=fault, on_complete=hook
        ).resume(payload, scenario.requests)
        assert_same_settlement(resumed, baseline)
        # Completions still running at the checkpoint fire after the resume.
        assert completed == uninterrupted


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestParentBytes:
    """Checkpoint bytes captured before each part saved its own state: the
    sections a trust-source-free run writes must not move."""

    #: Faulted Min-min kills: in-flight failures and retries, attempts and
    #: exclusions are all non-empty by window 2.
    KILLS = {
        1: "b7c89b0ce6499dcc5e504ab986cc963149da88bcf3ca496881b9d92e800970ee",
        2: "3adccfd7cda82fcdb15e178723f1e597b6253b1bf8eafb412c4e6b49c91d1fac",
        3: "f2d6935b3457c4b69179b1a3bd72166517f5537d58d0c9a17203a3427a27d58f",
    }
    #: Every checkpoint of a run with a token bucket and backpressure.
    ADMISSION = "3839fe877117addcd9e2ede8bb0877571428f28bc9bc04d6c9b9621011817b12"
    #: The file ``repro-trms serve --tasks 300 --seed 0 --checkpoint-every 2``
    #: writes with ``--checkpoint-out``.
    SERVE_FILE = "8413c6b13f40b4c3b0e5ad20618c98fd4eea7c96fd5a1261115d02d0eac0b2a1"

    @pytest.mark.parametrize("window", sorted(KILLS))
    def test_kill_checkpoints(self, medium_scenario, window):
        payload = kill(medium_scenario, window)
        assert payload["failures"] and payload["attempts"]
        assert _sha(payload) == self.KILLS[window]

    def test_admission_and_backpressure_checkpoints(self, medium_scenario):
        config = ServiceConfig(
            admission=AdmissionPolicy(
                rate=0.8 * medium_scenario.arrival_rate, burst=4.0
            ),
            backpressure_high=6,
        )
        result = build_service(medium_scenario, config=config).serve(
            medium_scenario.requests, checkpoint_every=1
        )
        assert result.backpressure_engagements and result.shed_total
        assert all(p["admission"] for p in result.checkpoint_payloads)
        assert _sha(list(result.checkpoint_payloads)) == self.ADMISSION

    def test_serve_checkpoint_file(self, tmp_path, capsys):
        out = tmp_path / "svc.json"
        argv = ["serve", "--tasks", "300", "--seed", "0", "--checkpoint-every", "2"]
        assert main([*argv, "--checkpoint-out", str(out)]) == 0
        assert f"checkpoint written to {out}" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SERVE_FILE


class TestTrustJournalSidecar:
    """Delta checkpoints: the ``trust_journal`` sidecar pins a durable
    trust plane by root, generation, base digest, and journal offset."""

    def _plane(self, tmp_path):
        from repro.core import DurableTrustPlane, TrustTable
        from repro.core.context import EXECUTION
        from repro.core.recommender import RecommenderWeights

        table = TrustTable()
        plane = DurableTrustPlane.create(
            tmp_path / "plane", table, RecommenderWeights()
        )
        table.record("cd:0", "rd:0", EXECUTION, 0.7, 10.0)
        table.record("cd:1", "rd:0", EXECUTION, 0.4, 20.0)
        return plane

    def test_attach_resolve_round_trip(self, tmp_path, medium_scenario):
        from repro.core.context import EXECUTION
        from repro.service.checkpoint import (
            attach_trust_journal,
            resolve_trust_journal,
        )

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        validate_checkpoint(payload)
        plane.close()
        path = save_checkpoint(payload, tmp_path / "svc.json")
        loaded = load_checkpoint(path)
        recovered = resolve_trust_journal(loaded)
        assert recovered is not None
        record = recovered.table.get("cd:0", "rd:0", EXECUTION)
        assert record is not None and record.value == 0.7
        recovered.close()

    def test_resolve_without_sidecar_is_none(self, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        assert resolve_trust_journal(kill(medium_scenario, 1)) is None

    def test_unacknowledged_tail_is_rolled_back(self, tmp_path, medium_scenario):
        from repro.core.context import EXECUTION
        from repro.service.checkpoint import (
            attach_trust_journal,
            resolve_trust_journal,
        )

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        # Writes after the acknowledged checkpoint belong to a timeline
        # the service is about to re-execute: resolve discards them.
        plane.table.record("cd:2", "rd:1", EXECUTION, 0.9, 30.0)
        plane.checkpoint()
        plane.close()
        recovered = resolve_trust_journal(json.loads(json.dumps(payload)))
        assert recovered.table.get("cd:2", "rd:1", EXECUTION) is None
        assert recovered.table.get("cd:0", "rd:0", EXECUTION).value == 0.7
        recovered.close()

    def test_pinned_generation_survives_compaction(self, tmp_path, medium_scenario):
        from repro.core.context import EXECUTION
        from repro.service.checkpoint import (
            attach_trust_journal,
            resolve_trust_journal,
        )

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.table.record("cd:2", "rd:1", EXECUTION, 0.9, 30.0)
        plane.checkpoint()
        plane.compact()  # folds the tail into a new base generation
        plane.close()
        recovered = resolve_trust_journal(json.loads(json.dumps(payload)))
        assert recovered.generation == payload["trust_journal"]["generation"]
        assert recovered.table.get("cd:2", "rd:1", EXECUTION) is None
        recovered.close()

    def test_torn_pinned_prefix_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import (
            attach_trust_journal,
            resolve_trust_journal,
        )

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.close()
        journal = tmp_path / "plane" / "journal-0.wal"
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0xFF  # tear inside the acknowledged prefix
        journal.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="pinned"):
            resolve_trust_journal(payload)

    def _pinned_then_closed(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import attach_trust_journal

        plane = self._plane(tmp_path)
        plane.compact()  # fold the records into a base with columns
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.close()
        base = tmp_path / "plane" / f"base-{plane.generation}"
        return json.loads(json.dumps(payload)), base

    def test_corrupted_base_segment_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        data = bytearray(base.read_bytes())
        data[-40] ^= 0xFF  # the last txcount, just before the digest
        base.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest") as exc:
            resolve_trust_journal(payload)
        assert str(base) in str(exc.value)

    def test_truncated_base_segment_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        base.write_bytes(base.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=re.escape(str(base))):
            resolve_trust_journal(payload)

    def test_tampered_base_manifest_is_refused(self, tmp_path, medium_scenario):
        # The base's JSON header took the place of the v2 manifest.
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        data = bytearray(base.read_bytes())
        data[data.index(b'"table_epoch"') + 1] ^= 0x01
        base.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=re.escape(str(base))):
            resolve_trust_journal(payload)

    def test_missing_base_manifest_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        base.unlink()
        with pytest.raises(CheckpointError, match=re.escape(str(base))):
            resolve_trust_journal(payload)

    def test_malformed_sidecar_is_rejected(self, medium_scenario):
        from repro.core.journal import JOURNAL_SCHEMA
        from repro.service.checkpoint import resolve_trust_journal

        payload = kill(medium_scenario, 1)
        good = {
            "schema": JOURNAL_SCHEMA, "root": "plane", "generation": 0,
            "offset": 0, "base_sha256": "0" * 64,
        }
        bad = [
            ({"schema": JOURNAL_SCHEMA}, "base_sha256"),
            ({k: v for k, v in good.items() if k != "root"}, "root"),
            ({**good, "root": 7}, "root"),
            ({**good, "generation": "a"}, "generation"),
            ({**good, "offset": -1}, "offset"),
        ]
        # Both entry points share one shape check that names the bad key.
        for entry in (validate_checkpoint, resolve_trust_journal):
            for sidecar, key in bad:
                payload["trust_journal"] = sidecar
                with pytest.raises(CheckpointError, match=f"sidecar.*'{key}'"):
                    entry(payload)

    def test_service_checkpoint_embeds_sidecar(self, tmp_path, medium_scenario):
        plane = self._plane(tmp_path)
        service = build_service(medium_scenario)
        service.trust_plane = plane
        with pytest.raises(ServiceKilled) as exc:
            service.serve(medium_scenario.requests, kill_after_window=1)
        payload = exc.value.checkpoint
        validate_checkpoint(payload)
        sidecar = payload["trust_journal"]
        assert sidecar["offset"] == plane.journal_offset
        assert sidecar["base_sha256"] == plane.base_digest
        plane.close()

    def test_resume_refuses_sidecar_without_plane(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import attach_trust_journal

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.close()
        with pytest.raises(CheckpointError, match="resolve_trust_journal"):
            build_service(medium_scenario).resume(
                payload, medium_scenario.requests
            )

    def test_resume_refuses_plane_without_sidecar(self, tmp_path, medium_scenario):
        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        service = build_service(medium_scenario)
        service.trust_plane = plane
        with pytest.raises(CheckpointError, match="unpinned"):
            service.resume(payload, medium_scenario.requests)
        plane.close()

    def test_resume_with_resolved_plane_round_trips(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import (
            attach_trust_journal,
            resolve_trust_journal,
        )

        plane = self._plane(tmp_path)
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.close()
        payload = json.loads(json.dumps(payload))
        recovered = resolve_trust_journal(payload)
        service = build_service(medium_scenario)
        service.trust_plane = recovered
        resumed = service.resume(payload, medium_scenario.requests)
        baseline = build_service(medium_scenario).serve(
            medium_scenario.requests
        )
        assert_same_settlement(resumed, baseline)
        recovered.close()
