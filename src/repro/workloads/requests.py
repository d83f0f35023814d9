"""Request-stream generation.

Turns sampled ingredients (arrival times, ToA sets, client assignment) into
the concrete :class:`~repro.grid.request.Request` objects the scheduler
consumes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.grid.topology import Grid
from repro.sim.arrivals import ArrivalProcess

__all__ = ["build_requests", "generate_request_stream"]


def build_requests(
    grid: Grid,
    activity_sets: Sequence[tuple[int, ...]],
    arrival_times: Sequence[float],
    client_indices: Sequence[int],
) -> list[Request]:
    """Assemble :class:`Request` objects from pre-sampled ingredients.

    Args:
        grid: the grid whose clients/catalog the requests reference.
        activity_sets: one activity-index tuple per request.
        arrival_times: one non-negative arrival time per request.
        client_indices: one originating client index per request.

    Raises:
        WorkloadError: on length mismatches or out-of-range indices.
    """
    n = len(activity_sets)
    if not (len(arrival_times) == len(client_indices) == n):
        raise WorkloadError(
            "activity_sets, arrival_times and client_indices must have equal length"
        )
    requests: list[Request] = []
    # Activity sets are immutable, and a catalog admits few distinct ones:
    # requests naming the same ToAs in the same order share one set.
    shared: dict[tuple[int, ...], ActivitySet] = {}
    for i in range(n):
        ci = int(client_indices[i])
        if not 0 <= ci < len(grid.clients):
            raise WorkloadError(f"client index {ci} out of range")
        members = tuple(activity_sets[i])
        activities = shared.get(members)
        if activities is None:
            activities = shared[members] = ActivitySet.of(
                [grid.catalog.by_index(a) for a in members]
            )
        task = Task(index=i, activities=activities)
        requests.append(
            Request(
                index=i,
                client=grid.clients[ci],
                task=task,
                arrival_time=float(arrival_times[i]),
            )
        )
    return requests


def generate_request_stream(
    grid: Grid,
    n_requests: int,
    arrivals: ArrivalProcess,
    rng: np.random.Generator,
    *,
    min_toas: int = 1,
    max_toas: int = 4,
) -> list[Request]:
    """Generate a full random request stream against ``grid``.

    Clients are drawn uniformly, ToA-set sizes uniformly from
    ``[min_toas, max_toas]`` per the paper, and arrival times from the given
    process.
    """
    from repro.workloads.trustgen import sample_activity_sets

    if n_requests < 0:
        raise WorkloadError("n_requests must be non-negative")
    activity_sets = sample_activity_sets(
        n_requests, len(grid.catalog), rng, min_toas=min_toas, max_toas=max_toas
    )
    times = arrivals.times(n_requests)
    clients = rng.integers(0, len(grid.clients), size=n_requests)
    return build_requests(grid, activity_sets, times, clients)
