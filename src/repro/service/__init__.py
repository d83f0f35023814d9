"""The service plane: an always-on scheduling service over the DES kernel.

Turns the batch experiment driver into a long-lived system: a bounded
ingestion plane (token-bucket admission, load shedding with typed reasons,
per-request deadlines) feeds a rolling-window scheduler that reuses the
incremental fast kernels across windows, degrades gracefully under machine
faults and trust-plane outages, propagates backpressure from the scheduler
back to ingestion, and checkpoints its complete state at window boundaries
so a mid-window crash recovers with settled-exactly-once accounting.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    ShedReason,
    TokenBucket,
)
from repro.service.backpressure import BackpressureLatch
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    save_checkpoint,
    validate_checkpoint,
)
from repro.service.replay import replay_scenario
from repro.service.service import (
    GridService,
    ServiceConfig,
    ServiceResult,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "ShedReason",
    "TokenBucket",
    "BackpressureLatch",
    "CHECKPOINT_SCHEMA",
    "load_checkpoint",
    "save_checkpoint",
    "validate_checkpoint",
    "replay_scenario",
    "GridService",
    "ServiceConfig",
    "ServiceResult",
]
