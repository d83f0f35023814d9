"""Publication policies for trust-level-table updates.

Section 3.1: "trust is a slow varying attribute, therefore, the update
overhead associated with the trust level table is not significant.  A value
in the trust level table is modified by a new trust level value that is
computed based on a *significant* amount of transactional data."

A :class:`SignificancePolicy` decides whether freshly evolved internal
evidence (a :class:`~repro.core.tables.TrustRecord`) justifies publishing a
new discrete level into the shared Grid trust-level table — the action the
Fig. 1 agents perform ("if the new trust values they form are different from
the existing values in the tables, the agents update the table").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.levels import TrustLevel
from repro.core.tables import TrustRecord, value_to_level
from repro.errors import ConfigurationError

__all__ = [
    "SignificancePolicy",
    "AlwaysPublish",
    "MinEvidencePolicy",
]


class SignificancePolicy(ABC):
    """Decides whether an evolved record should overwrite a published level."""

    @abstractmethod
    def should_publish(
        self, record: TrustRecord, published: TrustLevel | None
    ) -> bool:
        """Whether ``record`` justifies a table update.

        Args:
            record: the internally evolved evidence.
            published: the level currently in the shared table, or ``None``
                if the pair has no published entry yet.
        """

    def proposed_level(self, record: TrustRecord) -> TrustLevel:
        """The discrete level the record quantises to (what would be written)."""
        return value_to_level(record.value)


@dataclass(frozen=True, slots=True)
class AlwaysPublish(SignificancePolicy):
    """Publish whenever the quantised level differs from the published one."""

    def should_publish(self, record: TrustRecord, published: TrustLevel | None) -> bool:
        return published is None or self.proposed_level(record) != published


@dataclass(frozen=True, slots=True)
class MinEvidencePolicy(SignificancePolicy):
    """Publish only once at least ``min_transactions`` outcomes accumulated.

    This is the direct reading of the paper's "significant amount of
    transactional data".
    """

    min_transactions: int = 10

    def __post_init__(self) -> None:
        if self.min_transactions < 1:
            raise ConfigurationError(
                f"min_transactions must be >= 1, got {self.min_transactions!r}"
            )

    def should_publish(self, record: TrustRecord, published: TrustLevel | None) -> bool:
        if record.transaction_count < self.min_transactions:
            return False
        return published is None or self.proposed_level(record) != published

