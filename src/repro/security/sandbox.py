"""Software-fault-isolation (SFI) sandboxing cost models.

Section 5.1 cites the MiSFIT and SASI x86SFI runtime overheads measured in
[4] for three target applications.  We have neither the tools nor the i386
binaries, so sandboxing is modelled at the instruction-mix level:

* an application is an :class:`InstructionMix` — the fraction of executed
  instructions that are memory writes, memory reads and control transfers;
* an :class:`SfiTool` charges a fixed penalty (in cycles) per *checked*
  operation; MiSFIT (a C++ source-level tool) checks writes and indirect
  control transfers, while SASI x86SFI (an assembly-level security-automata
  tool) additionally guards reads — which is why SASI's overhead explodes on
  the read-heavy page-eviction benchmark but stays close to MiSFIT's on the
  other two.

Predicted overhead = extra cycles / base cycles, with base cost of one
cycle per instruction (CPI folded into the penalties).  The bundled
application profiles are calibrated to reproduce [4]'s numbers:

=====================  =======  =====
application            MiSFIT   SASI
=====================  =======  =====
page-eviction hotlist   137 %   264 %
logical log disk         58 %    65 %
MD5                      33 %    36 %
=====================  =======  =====

:func:`simulate_sandboxed_run` actually executes the model on a sampled
synthetic instruction stream (rather than just multiplying expectations), so
tests can check convergence and the benchmark exercises a real code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
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
]


@dataclass(frozen=True, slots=True)
class InstructionMix:
    """Dynamic instruction mix of an application.

    Attributes:
        name: application label.
        write_frac: fraction of instructions that are memory writes.
        read_frac: fraction that are memory reads.
        jump_frac: fraction that are (indirect) control transfers.
    """

    name: str
    write_frac: float
    read_frac: float
    jump_frac: float

    def __post_init__(self) -> None:
        for label, v in (
            ("write_frac", self.write_frac),
            ("read_frac", self.read_frac),
            ("jump_frac", self.jump_frac),
        ):
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{label} must lie in [0, 1], got {v!r}")
        if self.write_frac + self.read_frac + self.jump_frac > 1.0 + 1e-12:
            raise ConfigurationError(
                "write_frac + read_frac + jump_frac must be at most 1, got "
                f"{self.write_frac + self.read_frac + self.jump_frac!r}"
            )

    @property
    def other_frac(self) -> float:
        """Fraction of plain ALU/other instructions."""
        return 1.0 - self.write_frac - self.read_frac - self.jump_frac


@dataclass(frozen=True, slots=True)
class SfiTool:
    """An SFI sandboxing tool's per-operation check costs (cycles).

    Attributes:
        name: tool label.
        write_check: cycles added per guarded memory write.
        read_check: cycles added per guarded memory read (0 if unguarded).
        jump_check: cycles added per guarded control transfer.
    """

    name: str
    write_check: float
    read_check: float
    jump_check: float

    def __post_init__(self) -> None:
        for label, v in (
            ("write_check", self.write_check),
            ("read_check", self.read_check),
            ("jump_check", self.jump_check),
        ):
            if v < 0:
                raise ConfigurationError(f"{label} must be non-negative, got {v!r}")


#: MiSFIT sandboxes C++ writes and indirect jumps; reads are unguarded.
MISFIT = SfiTool("MiSFIT", write_check=4.0, read_check=0.0, jump_check=2.0)
#: SASI x86SFI enforces a security automaton on reads as well.
SASI_X86SFI = SfiTool("SASI x86SFI", write_check=4.0, read_check=2.0, jump_check=2.0)

#: Memory-intensive benchmark: dominated by pointer-chasing reads/writes.
PAGE_EVICTION_HOTLIST = InstructionMix(
    "page-eviction hotlist", write_frac=0.325, read_frac=0.62, jump_frac=0.04
)
#: Log-structured disk: bursts of buffered writes, few guarded reads.
LOGICAL_LOG_DISK = InstructionMix(
    "logical log-structured disk", write_frac=0.13, read_frac=0.035, jump_frac=0.03
)
#: MD5: compute-bound digest kernel, little guarded memory traffic.
MD5_DIGEST = InstructionMix("MD5", write_frac=0.07, read_frac=0.015, jump_frac=0.025)

BENCHMARK_APPS: tuple[InstructionMix, ...] = (
    PAGE_EVICTION_HOTLIST,
    LOGICAL_LOG_DISK,
    MD5_DIGEST,
)


def predicted_overhead(app: InstructionMix, tool: SfiTool) -> float:
    """Expected runtime overhead fraction of running ``app`` under ``tool``.

    With a base cost of 1 cycle/instruction, the overhead is the expected
    extra cycles per instruction.
    """
    return (
        app.write_frac * tool.write_check
        + app.read_frac * tool.read_check
        + app.jump_frac * tool.jump_check
    )


def simulate_sandboxed_run(
    app: InstructionMix,
    tool: SfiTool,
    rng: np.random.Generator,
    *,
    n_instructions: int = 200_000,
) -> float:
    """Run a sampled instruction stream through the tool's cost model.

    Draws ``n_instructions`` instruction categories from the app's mix,
    charges one base cycle each plus the tool's per-category check cost, and
    returns the measured overhead fraction.  Converges to
    :func:`predicted_overhead` as the stream grows.
    """
    if n_instructions < 1:
        raise ConfigurationError(
            f"n_instructions must be positive, got {n_instructions!r}"
        )
    probs = np.array(
        [app.write_frac, app.read_frac, app.jump_frac, app.other_frac]
    )
    penalties = np.array([tool.write_check, tool.read_check, tool.jump_check, 0.0])
    categories = rng.choice(4, size=n_instructions, p=probs)
    extra = penalties[categories].sum()
    return float(extra) / float(n_instructions)
