"""Refusals on the library's configuration are typed and say what they got.

Each raises :class:`~repro.errors.ConfigurationError`, which is also a
``ValueError``, and names the argument and the value it was given.
"""

import numpy as np
import pytest

from repro.analysis.calibration import aware_multiplier, unaware_multiplier
from repro.core.context import TrustContext
from repro.core.ets import EtsTable, expected_trust_supplement
from repro.core.levels import TrustLevel
from repro.core.journal import JournalConfig
from repro.core.recommender import RecommenderWeights
from repro.core.reputation import Reputation
from repro.core.tables import TrustTable
from repro.core.update import MinEvidencePolicy
from repro.errors import ConfigurationError
from repro.experiments.faulttol import run_fault_recovery
from repro.experiments.trustfaults import run_trustfault_study
from repro.faults.retry import RetryPolicy
from repro.grid.activities import ActivityCatalog, ActivitySet, ActivityType
from repro.grid.client import Client
from repro.grid.domain import ClientDomain, GridDomain, ResourceDomain
from repro.grid.machine import Machine, MachineState
from repro.grid.request import Request, Task
from repro.metrics.improvement import improvement_fraction
from repro.security.crypto import CipherSuite, HostCpu
from repro.security.network import NetworkLink
from repro.security.overhead import (
    DEFAULT_LADDER,
    Mechanism,
    SupplementLadder,
    linear_supplement_fraction,
)
from repro.security.plan import plan_supplement
from repro.security.sandbox import InstructionMix, SfiTool, simulate_sandboxed_run
from repro.security.transfer import (
    TransferEndpoint,
    TransferProtocol,
    simulate_transfer,
    transfer_overhead,
)
from repro.sim.arrivals import BatchArrivalProcess, PoissonProcess
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.sim.mmpp import MmppProcess
from repro.sim.queue import EventQueue
from repro.sim.rng import RngFactory

CTX = TrustContext("toa")
GD = GridDomain(0, "site")
TOA = ActivityType(0, "x")
RD = ResourceDomain(0, GD, frozenset({TOA}), TrustLevel.A)
CLIENT = Client(0, ClientDomain(0, GD, TrustLevel.A))
TASK = Task(0, ActivitySet((TOA,)))
LINK = NetworkLink("lan", line_rate_mbps=100.0)
RNG = np.random.default_rng(0)


def _mmpp(**overrides) -> MmppProcess:
    args = dict(quiet_rate=1.0, burst_rate=4.0, quiet_duration=10.0, burst_duration=2.0, rng=RNG)
    return MmppProcess(**{**args, **overrides})


def _future_opinion() -> None:
    table = TrustTable()
    table.record("c", "y", CTX, 0.6, 105.0)
    Reputation(table=table).evaluate("y", CTX, 100.0, asking="a")


@pytest.mark.parametrize(
    "refused, named",
    [
        (lambda: JournalConfig(min_compact_bytes=-1), "min_compact_bytes .*got -1"),
        (lambda: TrustLevel.from_value("G"), "value must be a letter A..F, got 'G'"),
        (lambda: TrustLevel.from_value(2.5), "value must be an integer 1..6, got 2.5"),
        (lambda: TrustLevel.from_value(7), "value must be an integer 1..6, got 7"),
        (lambda: expected_trust_supplement("A", "F"), "otl: .*cannot be F .*got F"),
        (lambda: EtsTable().lookup("B", 6), "otl: .*cannot be F .*got F"),
        (
            lambda: EtsTable().lookup_many(np.array([0, 3]), np.array([1, 1])),
            r"rtls: RTL values must lie in \[1, 6\], got values in \[0, 3\]",
        ),
        (
            lambda: EtsTable().lookup_many(np.array([1, 2]), np.array([2, 6])),
            r"otls: OTL values must lie in \[1, 5\], got values in \[2, 6\]",
        ),
        (lambda: RecommenderWeights(ally_weight=1.5), "ally_weight .*got 1.5"),
        (lambda: RecommenderWeights(default_accuracy=-0.1), "default_accuracy .*got -0.1"),
        (lambda: RecommenderWeights(learning_rate=0.0), r"learning_rate .*got 0.0"),
        (lambda: RecommenderWeights().observe_outcome("r", 1.2, 0.5), "predicted .*got 1.2"),
        (lambda: RecommenderWeights().observe_outcome("r", 0.5, -1.0), "actual .*got -1.0"),
        (lambda: Reputation(table=TrustTable(), unknown_prior=2.0), "unknown_prior .*got 2.0"),
        (_future_opinion, "now=100.0 precedes opinion of 'c' recorded at 105.0"),
        (lambda: MinEvidencePolicy(min_transactions=0), "min_transactions .*got 0"),
        (lambda: run_fault_recovery(workers=0), "workers .*got 0"),
        (lambda: run_fault_recovery(workers=-1), "workers .*got -1"),
        (lambda: run_trustfault_study(workers=0), "workers .*got 0"),
        (lambda: run_trustfault_study(workers=-1), "workers .*got -1"),
        (lambda: RetryPolicy().should_retry(0), "failed_attempt .*got 0"),
        (lambda: RetryPolicy().delay_for(-1), "failed_attempt .*got -1"),
        (lambda: improvement_fraction(0.0, 1.0), "unaware_value .*got 0.0"),
        (lambda: GridDomain(-1, "site"), "grid domain index .*got -1"),
        (lambda: GridDomain(0, ""), "grid domain name .*got ''"),
        (
            lambda: ResourceDomain(-2, GD, frozenset({TOA}), TrustLevel.A),
            "resource domain index .*got -2",
        ),
        (
            lambda: ResourceDomain(0, GD, frozenset(), TrustLevel.A),
            "supported_activities .*got frozenset",
        ),
        (lambda: ClientDomain(-3, GD, TrustLevel.A), "client domain index .*got -3"),
        (lambda: TrustContext(""), "trust context name .*got ''"),
        (lambda: Client(-1, CLIENT.client_domain), "client index .*got -1"),
        (lambda: Machine(-2, RD), "machine index .*got -2"),
        (lambda: MachineState(Machine(0, RD)).book_attempt(-1.5, 2.0), "executed time .*got -1.5"),
        (
            lambda: MachineState(Machine(0, RD), available_time=5.0).book_attempt(1.0, 4.0),
            "next_free 4.0 precedes booked work ending at 5.0",
        ),
        (lambda: Task(-4, TASK.activities), "task index .*got -4"),
        (lambda: Request(-5, CLIENT, TASK, 0.0), "request index .*got -5"),
        (lambda: Request(0, CLIENT, TASK, -0.25), "arrival_time .*got -0.25"),
        (lambda: ActivityType(-1, "x"), "activity index .*got -1"),
        (lambda: ActivityType(0, ""), "activity name .*got ''"),
        (lambda: ActivityCatalog.default(0), "n_activities .*got 0"),
        (lambda: ActivitySet(()), r"activities .*got \(\)"),
        (lambda: ActivitySet((TOA, TOA)), r"activities must not repeat .*got indices \[0, 0\]"),
        (lambda: TransferEndpoint(disk_mbs=0.0), "disk_mbs .*got 0.0"),
        (lambda: TransferProtocol("p", handshake_s=-0.5), "handshake_s .*got -0.5"),
        (
            lambda: simulate_transfer(-1.0, TransferProtocol("p", 0.0), LINK),
            "size_mb .*got -1.0",
        ),
        (
            lambda: transfer_overhead(
                0.0,
                NetworkLink("lan", line_rate_mbps=100.0, latency_s=0.0),
                secure=TransferProtocol("s", handshake_s=0.0),
            ),
            "secure protocol 's' .*got 0.0 s for size_mb=0.0",
        ),
        (lambda: NetworkLink("x", line_rate_mbps=0.0), "line_rate_mbps .*got 0.0"),
        (lambda: NetworkLink("x", 100.0, efficiency=1.5), r"efficiency .*got 1.5"),
        (lambda: NetworkLink("x", 100.0, latency_s=-1.0), "latency_s .*got -1.0"),
        (lambda: HostCpu("cpu", clock_mhz=0.0), "clock_mhz .*got 0.0"),
        (lambda: CipherSuite("c", cycles_per_byte=-2.0), "cycles_per_byte .*got -2.0"),
        (lambda: aware_multiplier(-0.5), "mean_tc .*got -0.5"),
        (lambda: unaware_multiplier(-0.5), "unaware_fraction .*got -0.5"),
        (lambda: _mmpp(quiet_rate=0.0), "quiet_rate .*got 0.0"),
        (lambda: _mmpp(burst_rate=-4.0), "burst_rate .*got -4.0"),
        (lambda: _mmpp(burst_rate=0.5), "burst_rate must exceed quiet_rate=1.0, got 0.5"),
        (lambda: _mmpp(quiet_duration=0.0), "quiet_duration .*got 0.0"),
        (lambda: _mmpp(burst_duration=-1.0), "burst_duration .*got -1.0"),
        (lambda: _mmpp(start=-2.0), "start .*got -2.0"),
        (lambda: MmppProcess.load_equivalent(0.0, RNG), "mean_rate .*got 0.0"),
        (lambda: MmppProcess.load_equivalent(1.0, RNG, burstiness=1.0), "burstiness .*got 1.0"),
        (lambda: PoissonProcess(0.0, RNG), "rate .*got 0.0"),
        (lambda: PoissonProcess(1.0, RNG, start=-1.0), "start .*got -1.0"),
        (lambda: PoissonProcess(1.0, RNG).times(-3), "count .*got -3"),
        (lambda: BatchArrivalProcess(at=-0.5), "at .*got -0.5"),
        (lambda: RngFactory(seed=-1), "seed .*got -1"),
        (lambda: RngFactory(seed=0).stream(""), "stream name .*got ''"),
        (lambda: RngFactory(seed=0).child(""), "child name .*got ''"),
        (lambda: Mechanism("md5", -0.1), "overhead_fraction of mechanism 'md5' .*got -0.1"),
        (lambda: SupplementLadder(((),)), "levels: .*got 1"),
        (lambda: DEFAULT_LADDER.overhead(7), r"tc: .*\[0, 6\], got 7"),
        (lambda: linear_supplement_fraction(-1.0), "tc: .*got -1.0"),
        (lambda: linear_supplement_fraction(2.0, weight=-15.0), "weight .*got -15.0"),
        (lambda: plan_supplement(TASK.activities, 8), r"trust_cost .*\[0, 6\], got 8"),
        (lambda: InstructionMix("app", 1.5, 0.0, 0.0), r"write_frac .*\[0, 1\], got 1.5"),
        (
            lambda: InstructionMix("app", 0.5, 0.4, 0.3),
            "write_frac \\+ read_frac \\+ jump_frac .*got 1.2",
        ),
        (lambda: SfiTool("sfi", 1.0, -2.0, 1.0), "read_check .*got -2.0"),
        (
            lambda: simulate_sandboxed_run(
                InstructionMix("app", 0.1, 0.2, 0.1), SfiTool("sfi", 1.0, 0.0, 1.0), RNG,
                n_instructions=0,
            ),
            "n_instructions .*got 0",
        ),
        (lambda: Simulator(max_events=0), "max_events .*got 0"),
        (
            lambda: EventQueue().push_many([1.0, 2.0], None, EventPriority.ARRIVAL, [0]),
            "payloads .*got 1 payloads for 2 times",
        ),
    ],
)
def test_refusal_is_typed_and_names_argument_and_value(refused, named):
    with pytest.raises(ConfigurationError, match=named) as caught:
        refused()
    assert isinstance(caught.value, ValueError)
