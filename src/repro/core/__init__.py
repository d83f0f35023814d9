"""Core trust and reputation model (paper Sections 2 and 3, Table 1).

Public surface of the paper's primary conceptual contribution: discrete
trust levels, the expected-trust-supplement table, decay functions, the
DTT/RTT tables, recommender weighting, the ``Γ = α·Θ + β·Ω`` trust engine,
and outcome-driven trust evolution.
"""

from repro.core.context import (
    EXECUTION,
    TrustContext,
)
from repro.core.decay import (
    DecayFunction,
    ExponentialDecay,
    NoDecay,
)
from repro.core.direct import DirectTrust
from repro.core.engine import TrustEngine
from repro.core.ets import EtsTable, TC_MAX, TC_MIN, expected_trust_supplement, trust_cost
from repro.core.evolution import TransactionOutcome, TrustEvolver
from repro.core.journal import (
    JOURNAL_SCHEMA,
    DurableTrustPlane,
    JournalConfig,
    JournalWriter,
    TrustJournalError,
    apply_op,
)
from repro.core.levels import (
    MAX_LEVEL,
    MAX_OFFERED_LEVEL,
    MIN_LEVEL,
    TrustLevel,
    offered_levels,
    required_levels,
)
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.reputation import Reputation
from repro.core.store import STORE_SCHEMA
from repro.core.tables import (
    TrustRecord,
    TrustTable,
    level_to_value,
    value_to_level,
)
from repro.core.update import (
    AlwaysPublish,
    MinEvidencePolicy,
    SignificancePolicy,
)

__all__ = [
    "TrustContext",
    "EXECUTION",
    "DecayFunction",
    "NoDecay",
    "ExponentialDecay",
    "DirectTrust",
    "Reputation",
    "TrustEngine",
    "EtsTable",
    "expected_trust_supplement",
    "trust_cost",
    "TC_MIN",
    "TC_MAX",
    "TransactionOutcome",
    "TrustEvolver",
    "TrustLevel",
    "MIN_LEVEL",
    "MAX_LEVEL",
    "MAX_OFFERED_LEVEL",
    "offered_levels",
    "required_levels",
    "AllianceRegistry",
    "STORE_SCHEMA",
    "JOURNAL_SCHEMA",
    "TrustJournalError",
    "JournalConfig",
    "JournalWriter",
    "DurableTrustPlane",
    "apply_op",
    "RecommenderWeights",
    "TrustRecord",
    "TrustTable",
    "value_to_level",
    "level_to_value",
    "SignificancePolicy",
    "AlwaysPublish",
    "MinEvidencePolicy",
]
