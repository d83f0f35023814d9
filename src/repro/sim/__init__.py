"""Discrete-event simulation substrate: kernel, event queue, arrival
processes, random-stream management, online statistics and tracing."""

from repro.sim.arrivals import (
    ArrivalProcess,
    BatchArrivalProcess,
    DeterministicProcess,
    PoissonProcess,
)
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator
from repro.sim.mmpp import MmppProcess
from repro.sim.queue import EventQueue
from repro.sim.rng import RngFactory
from repro.sim.stats import RunningStats
from repro.sim.trace import TraceEntry, Tracer

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "DeterministicProcess",
    "BatchArrivalProcess",
    "Event",
    "EventPriority",
    "EventQueue",
    "Simulator",
    "MmppProcess",
    "RngFactory",
    "RunningStats",
    "TraceEntry",
    "Tracer",
]
