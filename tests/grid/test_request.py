"""Tests for repro.grid.request."""

import pytest

from repro.core.levels import TrustLevel
from repro.grid.activities import ActivityCatalog, ActivitySet
from repro.grid.client import Client
from repro.grid.domain import ClientDomain, GridDomain
from repro.grid.request import Request, Task


@pytest.fixture
def client() -> Client:
    cd = ClientDomain(index=2, grid_domain=GridDomain(0, "org"), required_level=TrustLevel.B)
    return Client(index=0, client_domain=cd)


@pytest.fixture
def catalog() -> ActivityCatalog:
    return ActivityCatalog.default(4)


def make_request(client, catalog, index=0, arrival=1.0) -> Request:
    task = Task(index=index, activities=ActivitySet.of(catalog.by_index(0)))
    return Request(index=index, client=client, task=task, arrival_time=arrival)


class TestRequest:
    def test_client_domain_index(self, client, catalog):
        req = make_request(client, catalog)
        assert req.client_domain_index == 2

    def test_negative_arrival_rejected(self, client, catalog):
        with pytest.raises(ValueError):
            make_request(client, catalog, arrival=-1.0)

    def test_task_index_validation(self, catalog):
        with pytest.raises(ValueError):
            Task(index=-1, activities=ActivitySet.of(catalog.by_index(0)))

