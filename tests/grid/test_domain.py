"""Tests for repro.grid.domain, machine and client objects."""

import pytest

from repro.core.levels import TrustLevel
from repro.grid.activities import ActivityType
from repro.grid.client import Client
from repro.grid.domain import ClientDomain, GridDomain, ResourceDomain
from repro.grid.machine import Machine, MachineState


def make_rd(index=0, level=TrustLevel.B) -> ResourceDomain:
    gd = GridDomain(index=0, name="site")
    return ResourceDomain(
        index=index,
        grid_domain=gd,
        supported_activities=frozenset({ActivityType(0, "execute")}),
        required_level=level,
    )


class TestDomains:
    def test_grid_domain_validation(self):
        with pytest.raises(ValueError):
            GridDomain(index=-1, name="x")
        with pytest.raises(ValueError):
            GridDomain(index=0, name="")

    def test_resource_domain_supports(self):
        rd = make_rd()
        act = next(iter(rd.supported_activities))
        assert act in rd.supported_activities
        assert ActivityType(5, "other") not in rd.supported_activities

    def test_resource_domain_needs_activities(self):
        gd = GridDomain(index=0, name="site")
        with pytest.raises(ValueError):
            ResourceDomain(
                index=0,
                grid_domain=gd,
                supported_activities=frozenset(),
                required_level=TrustLevel.A,
            )

    def test_names_derive_from_grid_domain(self):
        rd = make_rd(index=2)
        assert rd.name == "site/rd2"
        cd = ClientDomain(index=1, grid_domain=GridDomain(0, "org"), required_level=TrustLevel.A)
        assert cd.name == "org/cd1"


class TestMachine:
    def test_default_name(self):
        m = Machine(index=3, resource_domain=make_rd())
        assert m.name == "site/rd0/m3"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Machine(index=-1, resource_domain=make_rd())


class TestMachineState:
    def test_assign_from_idle(self):
        state = MachineState(machine=Machine(0, make_rd()))
        state.book_attempt(5.0, 15.0)
        assert state.available_time == 15.0
        assert state.busy_time == 5.0
        assert state.assigned_count == 1

    def test_assign_queues_behind_existing_work(self):
        state = MachineState(machine=Machine(0, make_rd()))
        state.book_attempt(10.0, 10.0)
        state.book_attempt(3.0, 13.0)  # the second attempt waited until t=10
        assert state.available_time == 13.0
        assert state.busy_time == 13.0
        with pytest.raises(ValueError):
            state.book_attempt(1.0, 12.0)  # would end before booked work

    def test_idle_gap_not_counted_busy(self):
        state = MachineState(machine=Machine(0, make_rd()))
        state.book_attempt(1.0, 101.0)
        assert state.busy_time == 1.0
        assert state.available_time == 101.0

    def test_negative_cost_rejected(self):
        state = MachineState(machine=Machine(0, make_rd()))
        with pytest.raises(ValueError):
            state.book_attempt(-1.0, 0.0)

    def test_utilization(self):
        state = MachineState(machine=Machine(0, make_rd()))
        state.book_attempt(5.0, 5.0)
        assert state.utilization(horizon=10.0) == pytest.approx(0.5)
        assert state.utilization(horizon=0.0) == 0.0
        # Capped at 1 even if horizon shorter than busy time.
        assert state.utilization(horizon=2.0) == 1.0


class TestClient:
    def test_default_name(self):
        cd = ClientDomain(index=0, grid_domain=GridDomain(0, "org"), required_level=TrustLevel.A)
        c = Client(index=4, client_domain=cd)
        assert c.name == "org/cd0/c4"
        assert str(c) == c.name
