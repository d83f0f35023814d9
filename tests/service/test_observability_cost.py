"""Disabled observability costs nothing per request, and enabling it
records exactly the pinned trace.

The arrival path and the booking loop test ``tracer.enabled`` once per
arrival or window instead of building an ``emit`` call per item; these
tests pin both halves: a disabled tracer is never called, and an enabled
one sees the same entries, in the same order, as it always has.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_policies, paper_spec
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.scheduling import TRMScheduler, make_heuristic
from repro.scheduling.result import CompletionRecord
from repro.service import GridService
from repro.sim.trace import Tracer
from repro.workloads.eec import Consistency
from repro.workloads.scenario import materialize

FAULTS = FaultModel(
    tasks=TaskFailureModel(default_crash_prob=0.15),
    machines=MachineFailureModel(mtbf=4000.0, mttr=400.0),
)

#: SHA-256 of the trace entries and of the ``on_complete`` call order of a
#: 200-request min-min serve (fault-free, then faulted with retries).
GOLDEN = {
    False: (
        "7e5c05f7d4f7c084080c19bd9845fc6e335a1e9c733769ac75f3714b9ad0af45",
        "3ea75bbadff96f804ea2feeddf2f211053e75770b6eeaa18da634a62f0ee1933",
    ),
    True: (
        "320c631000cbee571a10647d344164d55db1f7c251c85bf92389433a0b6e5d04",
        "98a04c255d26f430d388de19eb8ec13012c7ade04d95a9f457d7a921ef7613b1",
    ),
}


class CountingTracer(Tracer):
    """A tracer that counts every ``emit`` call, recorded or not."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls = 0

    def emit(self, time, kind, **detail) -> None:
        self.calls += 1
        super().emit(time, kind, **detail)


@pytest.fixture(scope="module")
def scenario():
    return materialize(paper_spec(200, Consistency.INCONSISTENT), seed=5)


def serve(scenario, tracer, *, faults=False, checkpoint_every=None):
    hooked: list[tuple[int, float]] = []
    kwargs = {}
    if faults:
        kwargs = dict(
            faults=FaultInjector(FAULTS, rng=3),
            retry=RetryPolicy(backoff_base=30.0),
        )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        paper_policies()[0],
        make_heuristic("min-min"),
        batch_interval=PAPER_BATCH_INTERVAL,
        tracer=tracer,
        on_complete=lambda r: hooked.append((r.request_index, r.completion_time)),
        **kwargs,
    )
    service = GridService(scheduler)
    result = service.serve(scenario.requests, checkpoint_every=checkpoint_every)
    return result, hooked


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_disabled_tracer_is_never_called(scenario):
    tracer = CountingTracer(enabled=False)
    result, hooked = serve(scenario, tracer)
    assert result.schedule.n_completed == 200
    assert len(hooked) == 200
    assert tracer.calls == 0


@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "faulted"])
def test_enabled_trace_matches_the_pinned_run(scenario, faults):
    tracer = CountingTracer()
    _, hooked = serve(scenario, tracer, faults=faults)
    entries = [(e.time, e.kind, sorted(e.detail.items())) for e in tracer]
    assert tracer.calls == len(entries)
    assert (digest(entries), digest(hooked)) == GOLDEN[faults]


def test_checkpointed_records_rebuild_equal(scenario):
    result, _ = serve(
        scenario, Tracer.disabled(), faults=True, checkpoint_every=1
    )
    booked = {r.request_index: r for r in result.schedule.records}
    assert any(r.attempt > 1 for r in booked.values())
    # ``resume`` rebuilds each record from the checkpoint's JSON with the
    # validating constructor; every one must come back equal.
    payload = json.loads(json.dumps(result.checkpoint_payloads[-1]))
    assert payload["records"]
    for key, fields in payload["records"].items():
        restored = CompletionRecord(**fields)
        assert type(restored) is CompletionRecord
        assert restored == booked[int(key)]
