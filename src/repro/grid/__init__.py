"""Grid system model (paper Section 3): domains, machines, clients, requests,
the central trust-level table, and the Figure-1 monitoring agents."""

from repro.grid.activities import ActivityCatalog, ActivitySet, ActivityType
from repro.grid.agents import AgentFleet, AgentSide, DomainTrustAgent
from repro.grid.behavior import (
    BehaviorModel,
    BehaviorProfile,
    DegradingBehavior,
    StationaryBehavior,
)
from repro.grid.client import Client
from repro.grid.feedback import TrustFeedback
from repro.grid.session import GridSession, RoundResult, SessionResult
from repro.grid.domain import ClientDomain, GridDomain, ResourceDomain
from repro.grid.machine import Machine, MachineState
from repro.grid.request import Request, Task
from repro.grid.topology import Grid, GridBuilder
from repro.grid.trust_table import GridTrustTable

__all__ = [
    "ActivityCatalog",
    "ActivitySet",
    "ActivityType",
    "AgentFleet",
    "AgentSide",
    "DomainTrustAgent",
    "BehaviorModel",
    "BehaviorProfile",
    "StationaryBehavior",
    "DegradingBehavior",
    "GridSession",
    "TrustFeedback",
    "RoundResult",
    "SessionResult",
    "Client",
    "ClientDomain",
    "GridDomain",
    "ResourceDomain",
    "Machine",
    "MachineState",
    "Request",
    "Task",
    "Grid",
    "GridBuilder",
    "GridTrustTable",
]
