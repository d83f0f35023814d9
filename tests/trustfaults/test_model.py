"""Tests for the trust-plane fault model configuration objects."""

import pytest

from repro.errors import ConfigurationError
from repro.trustfaults.model import (
    AdversarySpec,
    AttackKind,
    IntegrityFaultModel,
    TrustFaultModel,
    TrustQueryConfig,
    TrustSourceFault,
)


def faulty(fault: TrustSourceFault) -> bool:
    """Whether ``fault`` can ever disturb a query."""
    return (
        fault.blackout
        or bool(fault.outages)
        or fault.outage_mtbf is not None
        or fault.latency_mean > 0
        or fault.refresh_interval is not None
    )


class TestTrustSourceFault:
    def test_defaults_are_healthy(self):
        assert not faulty(TrustSourceFault())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blackout": True},
            {"outages": ((0.0, 10.0),)},
            {"outage_mtbf": 100.0},
            {"latency_mean": 0.1},
            {"refresh_interval": 10.0},
        ],
    )
    def test_any_knob_makes_it_faulty(self, kwargs):
        assert faulty(TrustSourceFault(**kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"outages": ((10.0, 5.0),)},
            {"outages": ((-1.0, 5.0),)},
            {"outage_mtbf": 0.0},
            {"outage_mttr": 0.0},
            {"latency_mean": -1.0},
            {"refresh_interval": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrustSourceFault(**kwargs)


class TestTrustQueryConfig:
    def test_defaults_valid(self):
        config = TrustQueryConfig()
        assert config.timeout > 0
        assert config.staleness_bound == float("inf")

    @pytest.mark.parametrize(
        "kwargs", [{"timeout": 0.0}, {"staleness_bound": 0.0}]
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrustQueryConfig(**kwargs)


class TestAdversarySpec:
    def test_group_label_defaults_to_kind(self):
        spec = AdversarySpec(kind=AttackKind.BADMOUTH, targets=(0,))
        assert spec.group_label == "badmouth"

    def test_explicit_label_wins(self):
        spec = AdversarySpec(
            kind=AttackKind.BADMOUTH, targets=(0,), label="cartel"
        )
        assert spec.group_label == "cartel"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"targets": ()},
            {"targets": (-1,)},
            {"targets": (0,), "n_recommenders": 0},
            {"targets": (0,), "value_low": -0.1},
            {"targets": (0,), "value_high": 1.1},
            {"targets": (0,), "period": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdversarySpec(kind=AttackKind.BALLOT_STUFF, **kwargs)


class TestTrustFaultModel:
    def test_empty_model_disabled(self):
        assert not TrustFaultModel().enabled

    def test_table_fault_enables(self):
        assert TrustFaultModel(table=TrustSourceFault(blackout=True)).enabled

    def test_integrity_enables(self):
        model = TrustFaultModel(
            integrity=IntegrityFaultModel(
                adversaries=(
                    AdversarySpec(kind=AttackKind.BADMOUTH, targets=(0,)),
                )
            )
        )
        assert model.enabled

    def test_integrity_model_needs_adversaries(self):
        with pytest.raises(ConfigurationError):
            IntegrityFaultModel(adversaries=())
