"""Refusals on the trust loop's configuration are typed and say what they got.

Each raises :class:`~repro.errors.ConfigurationError`, which is also a
``ValueError``, and names the argument and the value it was given.
"""

import pytest

from repro.core.context import TrustContext
from repro.core.journal import JournalConfig
from repro.core.recommender import RecommenderWeights
from repro.core.reputation import Reputation
from repro.core.tables import TrustTable
from repro.core.update import MinEvidencePolicy
from repro.errors import ConfigurationError

CTX = TrustContext("toa")


def _future_opinion() -> None:
    table = TrustTable()
    table.record("c", "y", CTX, 0.6, 105.0)
    Reputation(table=table).evaluate("y", CTX, 100.0, asking="a")


@pytest.mark.parametrize(
    "refused, named",
    [
        (lambda: JournalConfig(compact_ratio=0.0), "compact_ratio .*got 0.0"),
        (lambda: JournalConfig(min_compact_bytes=-1), "min_compact_bytes .*got -1"),
        (lambda: JournalConfig(keep_generations=-2), "keep_generations .*got -2"),
        (lambda: RecommenderWeights(ally_weight=1.5), "ally_weight .*got 1.5"),
        (lambda: RecommenderWeights(default_accuracy=-0.1), "default_accuracy .*got -0.1"),
        (lambda: RecommenderWeights(learning_rate=0.0), r"learning_rate .*got 0.0"),
        (lambda: RecommenderWeights().observe_outcome("r", 1.2, 0.5), "predicted .*got 1.2"),
        (lambda: RecommenderWeights().observe_outcome("r", 0.5, -1.0), "actual .*got -1.0"),
        (lambda: Reputation(table=TrustTable(), unknown_prior=2.0), "unknown_prior .*got 2.0"),
        (_future_opinion, "now=100.0 precedes opinion of 'c' recorded at 105.0"),
        (lambda: MinEvidencePolicy(min_transactions=0), "min_transactions .*got 0"),
    ],
)
def test_refusal_is_typed_and_names_argument_and_value(refused, named):
    with pytest.raises(ConfigurationError, match=named) as caught:
        refused()
    assert isinstance(caught.value, ValueError)
