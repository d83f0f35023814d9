"""Replay driver: feed a materialised scenario through the service plane.

The batch experiments hand a :class:`~repro.workloads.scenario.Scenario`
straight to ``TRMScheduler.run``; this module is the service-plane
counterpart used by ``repro-trms serve``, the CI service smoke job and the
throughput benchmark — it assembles a scheduler and a
:class:`~repro.service.service.GridService` from a scenario and replays
the request stream through ingestion.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.config import PAPER_BATCH_INTERVAL
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import is_batch, make_heuristic
from repro.scheduling.scheduler import TRMScheduler
from repro.service.service import GridService, ServiceConfig, ServiceResult
from repro.sim.trace import Tracer
from repro.trustfaults.model import TrustFaultModel
from repro.trustfaults.query import ResilientTrustSource
from repro.workloads.scenario import Scenario

__all__ = ["replay_scenario"]


def replay_scenario(
    scenario: Scenario,
    heuristic: str,
    policy: TrustPolicy,
    *,
    config: ServiceConfig | None = None,
    batch_interval: float | None = None,
    faults: FaultModel | None = None,
    fault_seed: int = 0,
    retry: RetryPolicy | None = None,
    trust_faults: TrustFaultModel | None = None,
    trust_fault_seed: int = 1,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    kill_after_window: int | None = None,
    checkpoint_every: int | None = None,
) -> ServiceResult:
    """Replay ``scenario``'s request stream through a fresh service.

    Args:
        scenario: the materialised workload (grid, EEC matrix, requests).
        heuristic: registry name of the mapping heuristic.
        policy: trust policy for pricing and accounting.
        config: service-plane configuration (admission, backpressure);
            defaults to unlimited admission.
        batch_interval: meta-request formation period for batch
            heuristics; defaults to the paper's 600 s.
        faults: optional machine/task failure model to inject.
        fault_seed: seed for the fault injector's deterministic streams.
        retry: recovery policy when ``faults`` is given.
        trust_faults: optional trust-plane fault model; installs a
            resilient trust source in front of the grid's trust table.
        trust_fault_seed: seed for the trust source's jitter streams.
        metrics: optional registry receiving ``svc.*``/``sched.*`` series.
        tracer: optional tracer receiving the run's lifecycle entries.
        kill_after_window: crash emulation (see ``GridService.serve``).
        checkpoint_every: boundary-checkpoint period in windows.

    Returns:
        The :class:`~repro.service.service.ServiceResult`.
    """
    import numpy as np

    h = make_heuristic(heuristic)
    if is_batch(heuristic):
        interval = (
            float(batch_interval)
            if batch_interval is not None
            else PAPER_BATCH_INTERVAL
        )
    else:
        if batch_interval is not None:
            raise ConfigurationError(
                f"{heuristic} is an immediate heuristic, which the service "
                "windows every DEFAULT_WINDOW_INTERVAL; batch_interval must "
                f"be None, got {batch_interval!r}"
            )
        interval = None

    injector = (
        FaultInjector(faults, rng=fault_seed) if faults is not None else None
    )
    trust_source = (
        ResilientTrustSource.from_model(
            scenario.grid,
            trust_faults,
            rng=np.random.default_rng(trust_fault_seed),
            metrics=metrics,
        )
        if trust_faults is not None
        else None
    )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        policy,
        h,
        batch_interval=interval,
        faults=injector,
        retry=retry,
        metrics=metrics,
        tracer=tracer,
        trust_source=trust_source,
    )
    service = GridService(scheduler, config)
    return service.serve(
        scenario.requests,
        kill_after_window=kill_after_window,
        checkpoint_every=checkpoint_every,
    )
