"""Deterministic random-stream management.

Every stochastic component of a simulation (arrivals, EEC generation, trust
level sampling, ...) gets its *own* :class:`numpy.random.Generator`, spawned
from a single root :class:`numpy.random.SeedSequence`.  This gives

* reproducibility — one integer seed determines the whole experiment;
* independence — streams do not interleave, so adding draws to one
  component never perturbs another (crucial when comparing trust-aware and
  trust-unaware runs on *identical* workloads);
* named streams — a component requests its stream by name, and the same
  name always yields the same stream for the same root seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RngFactory"]


@dataclass
class RngFactory:
    """Spawns named, independent random generators from one root seed.

    Attributes:
        seed: the root seed of the experiment.

    Example::

        rng = RngFactory(seed=42)
        arrivals = rng.stream("arrivals")
        eec = rng.stream("eec-matrix")
        assert rng.stream("arrivals") is not arrivals  # fresh generator...
        # ...but statistically identical: same name -> same stream state.
    """

    seed: int
    _issued: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed!r}")

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream.

        Repeated calls with the same name return independent generator
        *objects* positioned at the same initial state, so callers that need
        a persistent stream should hold on to the returned generator.
        """
        if not name:
            raise ConfigurationError(f"stream name must be non-empty, got {name!r}")
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return np.random.default_rng(seq)

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory (e.g. one per replication).

        The child's streams are independent of the parent's and of any
        sibling child's, as long as the names differ.
        """
        if not name:
            raise ConfigurationError(f"child name must be non-empty, got {name!r}")
        derived = zlib.crc32(f"child:{name}".encode("utf-8"))
        # Mix the child key into the seed via a SeedSequence-generated state.
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(derived,))
        new_seed = int(seq.generate_state(1, dtype=np.uint32)[0])
        return RngFactory(seed=new_seed)
