"""Checkpoint/restore: schema validation, file round-trips, and the
kill-and-restore property — a crash at any window boundary recovers with
settled accounting identical to the uninterrupted run."""

from __future__ import annotations

import json
import re

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
from repro.scheduling import TRMScheduler, make_heuristic
from repro.service import GridService
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


def build_service(scenario, *, blackout=False, metrics=None, on_complete=None):
    """A deterministic faulted service; construct one per run/resume."""
    aware, _ = paper_policies()
    trust_source = (
        ResilientTrustSource.from_model(
            scenario.grid,
            TrustFaultModel(table=TrustSourceFault(blackout=True)),
            rng=2,
        )
        if blackout
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
    return GridService(scheduler)


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
        baseline = build_service(medium_scenario, blackout=True).serve(
            medium_scenario.requests
        )
        payload = json.loads(
            json.dumps(kill(medium_scenario, 2, blackout=True))
        )
        assert "trust_plane" in payload
        resumed = build_service(medium_scenario, blackout=True).resume(
            payload, medium_scenario.requests
        )
        assert_same_settlement(resumed, baseline)

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

    def test_random_outage_process_is_not_checkpointable(
        self, medium_scenario
    ):
        aware, _ = paper_policies()
        trust_source = ResilientTrustSource.from_model(
            medium_scenario.grid,
            TrustFaultModel(
                table=TrustSourceFault(outage_mtbf=500.0, outage_mttr=50.0)
            ),
            rng=2,
        )
        scheduler = TRMScheduler(
            medium_scenario.grid,
            medium_scenario.eec,
            aware,
            make_heuristic("min-min"),
            batch_interval=PAPER_BATCH_INTERVAL,
            trust_source=trust_source,
        )
        service = GridService(scheduler)
        with pytest.raises(CheckpointError, match="outage"):
            service.serve(
                medium_scenario.requests, kill_after_window=1
            )


class TestKillAndRestoreProperty:
    """Satellite 3: the round-trip holds at *random* window boundaries."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=6),
        window=st.integers(min_value=1, max_value=4),
    )
    def test_random_boundary_recovers_exactly(self, seed, window):
        spec = ScenarioSpec(n_tasks=30, n_machines=4, target_load=3.0)
        scenario = materialize(spec, seed=seed)
        completed = []

        def hook(record):
            completed.append((record.request_index, record.completion_time))

        baseline = build_service(scenario, on_complete=hook).serve(scenario.requests)
        uninterrupted, completed[:] = list(completed), []
        try:
            payload = kill(scenario, window, on_complete=hook)
        except pytest.fail.Exception:
            # The run drained before the kill window — nothing to restore,
            # which is itself a pass (the service just finished).
            return
        payload = json.loads(json.dumps(payload))
        resumed = build_service(scenario, on_complete=hook).resume(
            payload, scenario.requests
        )
        assert_same_settlement(resumed, baseline)
        # Completions still running at the checkpoint fire after the resume.
        assert completed == uninterrupted


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
        plane.compact()  # fold the records into a base with segments
        payload = kill(medium_scenario, 1)
        attach_trust_journal(payload, plane)
        plane.close()
        base = tmp_path / "plane" / f"base-{plane.generation}"
        return json.loads(json.dumps(payload)), base

    def test_corrupted_base_segment_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        segment = base / "value.bin"
        data = bytearray(segment.read_bytes())
        data[0] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest") as exc:
            resolve_trust_journal(payload)
        assert str(segment) in str(exc.value)

    def test_truncated_base_segment_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        segment = base / "time.bin"
        segment.write_bytes(segment.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=re.escape(str(segment))):
            resolve_trust_journal(payload)

    def test_tampered_base_manifest_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        manifest = base / "manifest.json"
        manifest.write_text(manifest.read_text() + "\n")
        with pytest.raises(CheckpointError, match=re.escape(str(manifest))):
            resolve_trust_journal(payload)

    def test_missing_base_manifest_is_refused(self, tmp_path, medium_scenario):
        from repro.service.checkpoint import resolve_trust_journal

        payload, base = self._pinned_then_closed(tmp_path, medium_scenario)
        manifest = base / "manifest.json"
        manifest.unlink()
        with pytest.raises(CheckpointError, match=re.escape(str(manifest))):
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
