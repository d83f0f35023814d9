"""Security-overhead models (paper Section 5.1): network links, cipher
throughput, rcp/scp transfer pipelines, SFI sandboxing cost models, and the
supplement-ladder grounding of the 15 %/level trust-cost weight."""

from repro.security.crypto import (
    AES128_SHA1,
    PIII_866,
    TRIPLE_DES_SHA1,
    CipherSuite,
    HostCpu,
)
from repro.security.network import FAST_ETHERNET, GIGABIT_ETHERNET, NetworkLink
from repro.security.overhead import (
    DEFAULT_LADDER,
    Mechanism,
    SupplementLadder,
    calibrate_weight,
    linear_supplement_fraction,
)
from repro.security.plan import ActivityPlan, SecurityPlan, plan_supplement
from repro.security.sandbox import (
    BENCHMARK_APPS,
    LOGICAL_LOG_DISK,
    MD5_DIGEST,
    MISFIT,
    PAGE_EVICTION_HOTLIST,
    SASI_X86SFI,
    InstructionMix,
    SfiTool,
    predicted_overhead,
    simulate_sandboxed_run,
)
from repro.security.transfer import (
    RCP,
    SCP,
    TransferEndpoint,
    TransferProtocol,
    simulate_transfer,
    transfer_overhead,
)

__all__ = [
    "CipherSuite",
    "HostCpu",
    "PIII_866",
    "TRIPLE_DES_SHA1",
    "AES128_SHA1",
    "NetworkLink",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "Mechanism",
    "SupplementLadder",
    "DEFAULT_LADDER",
    "calibrate_weight",
    "linear_supplement_fraction",
    "ActivityPlan",
    "SecurityPlan",
    "plan_supplement",
    "InstructionMix",
    "SfiTool",
    "MISFIT",
    "SASI_X86SFI",
    "PAGE_EVICTION_HOTLIST",
    "LOGICAL_LOG_DISK",
    "MD5_DIGEST",
    "BENCHMARK_APPS",
    "predicted_overhead",
    "simulate_sandboxed_run",
    "TransferEndpoint",
    "TransferProtocol",
    "RCP",
    "SCP",
    "simulate_transfer",
    "transfer_overhead",
]
