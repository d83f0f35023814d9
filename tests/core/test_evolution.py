"""Tests for repro.core.evolution and repro.core.update."""

import pytest

from repro.core.context import EXECUTION
from repro.core.evolution import TransactionOutcome, TrustEvolver
from repro.core.levels import TrustLevel
from repro.core.tables import TrustRecord, TrustTable
from repro.core.update import AlwaysPublish, MinEvidencePolicy
from repro.errors import ConfigurationError


def outcome(satisfaction: float, time: float) -> TransactionOutcome:
    return TransactionOutcome(
        truster="x", trustee="y", context=EXECUTION, satisfaction=satisfaction, time=time
    )


class TestTransactionOutcome:
    def test_satisfaction_bounds(self):
        with pytest.raises(ValueError):
            outcome(1.5, 0.0)
        with pytest.raises(ValueError):
            outcome(-0.1, 0.0)

    def test_self_transaction_rejected(self):
        with pytest.raises(ValueError):
            TransactionOutcome("x", "x", EXECUTION, 0.5, 0.0)


class TestTrustEvolver:
    def test_first_outcome_taken_verbatim(self):
        evolver = TrustEvolver(table=TrustTable(), smoothing=0.3)
        rec = evolver.observe(outcome(0.8, 1.0))
        assert rec.value == pytest.approx(0.8)
        assert rec.transaction_count == 1

    def test_ema_update(self):
        evolver = TrustEvolver(table=TrustTable(), smoothing=0.5)
        evolver.observe(outcome(1.0, 1.0))
        rec = evolver.observe(outcome(0.0, 2.0))
        assert rec.value == pytest.approx(0.5)
        assert rec.transaction_count == 2

    def test_good_behaviour_raises_trust_monotonically(self):
        evolver = TrustEvolver(table=TrustTable(), smoothing=0.3)
        evolver.observe(outcome(0.2, 0.0))
        values = []
        for t in range(1, 20):
            values.append(evolver.observe(outcome(1.0, float(t))).value)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9

    def test_out_of_order_outcomes_rejected(self):
        evolver = TrustEvolver(table=TrustTable())
        evolver.observe(outcome(0.5, 10.0))
        with pytest.raises(ValueError, match="time order"):
            evolver.observe(outcome(0.5, 9.0))

    @pytest.mark.parametrize("smoothing", [0.0, 1.5])
    def test_bad_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError):
            TrustEvolver(table=TrustTable(), smoothing=smoothing)


class TestPublicationPolicies:
    def rec(self, value: float, count: int) -> TrustRecord:
        return TrustRecord(value=value, last_transaction=0.0, transaction_count=count)

    def test_always_publish_on_change(self):
        policy = AlwaysPublish()
        assert policy.should_publish(self.rec(0.9, 1), TrustLevel.A)
        assert not policy.should_publish(self.rec(0.05, 1), TrustLevel.A)
        assert policy.should_publish(self.rec(0.05, 1), None)

    def test_min_evidence_blocks_early_publication(self):
        policy = MinEvidencePolicy(min_transactions=5)
        assert not policy.should_publish(self.rec(0.9, 4), TrustLevel.A)
        assert policy.should_publish(self.rec(0.9, 5), TrustLevel.A)

    def test_min_evidence_no_publish_without_change(self):
        policy = MinEvidencePolicy(min_transactions=1)
        assert not policy.should_publish(self.rec(0.05, 10), TrustLevel.A)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MinEvidencePolicy(min_transactions=0),
        ],
    )
    def test_bad_policy_parameters(self, factory):
        with pytest.raises(ValueError):
            factory()


@pytest.mark.parametrize(
    "refuse,match",
    [
        (lambda: outcome(1.5, 0.0), r"satisfaction must lie in \[0, 1\], got 1.5"),
        (
            lambda: TransactionOutcome("x", "x", EXECUTION, 0.5, 0.0),
            r"must differ, got truster='x' trustee='x'",
        ),
        (
            lambda: TrustEvolver(table=TrustTable(), smoothing=1.5),
            r"smoothing must lie in \(0, 1\], got 1.5",
        ),
    ],
    ids=["satisfaction", "self-outcome", "smoothing"],
)
def test_refusals_are_typed_and_name_the_value(refuse, match):
    with pytest.raises(ConfigurationError, match=match):
        refuse()


def test_out_of_order_refusal_is_typed_and_leaves_the_table_unchanged():
    evolver = TrustEvolver(table=TrustTable())
    evolver.observe(outcome(0.5, 10.0))
    before = (list(evolver.table.items()), evolver.table.epoch)
    with pytest.raises(ConfigurationError, match=r"time 9.0 < 10.0"):
        evolver.observe(outcome(0.5, 9.0))
    assert (list(evolver.table.items()), evolver.table.epoch) == before


class TestOutcomeTuple:
    def test_positional_and_keyword_construction_agree(self):
        assert outcome(0.5, 1.0) == TransactionOutcome("x", "y", EXECUTION, 0.5, 1.0)
        assert outcome(0.5, 1.0).satisfaction == 0.5

    def test_replace_and_make_validate(self):
        with pytest.raises(ConfigurationError):
            outcome(0.5, 1.0)._replace(satisfaction=2.0)
        with pytest.raises(ConfigurationError):
            TransactionOutcome._make(("x", "x", EXECUTION, 0.5, 1.0))

    def test_outcomes_are_immutable(self):
        with pytest.raises(AttributeError):
            outcome(0.5, 1.0).satisfaction = 0.1
