"""Tests for the heuristic registry."""

import pytest

from repro.errors import ConfigurationError
from repro.scheduling.base import BatchHeuristic, ImmediateHeuristic
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.registry import (
    heuristic_names,
    is_batch,
    make_heuristic,
    register_heuristic,
)

#: One name per heuristic of the [10] family; each builds its one
#: production implementation.
NAMES = (
    "duplex", "kpb", "max-min", "mct", "met", "min-min", "olb", "sa", "sufferage",
)


class TestRegistry:
    def test_paper_heuristics_present(self):
        names = heuristic_names()
        for name in ("mct", "min-min", "sufferage"):
            assert name in names

    def test_baselines_present(self):
        names = heuristic_names()
        for name in ("met", "olb", "kpb", "sa", "max-min", "duplex"):
            assert name in names

    def test_exact_names(self):
        assert heuristic_names() == NAMES

    def test_no_kernel_aliases(self):
        # Nine names, no ``-fast`` aliases, no per-heuristic kernel label.
        assert len(heuristic_names()) == 9
        assert not [n for n in heuristic_names() if n.endswith("-fast")]
        for name in heuristic_names():
            assert not hasattr(make_heuristic(name), "kernel")

    def test_make_heuristic_instantiates(self):
        assert isinstance(make_heuristic("mct"), ImmediateHeuristic)
        assert isinstance(make_heuristic("sufferage"), BatchHeuristic)

    def test_name_normalised(self):
        assert isinstance(make_heuristic("  MCT "), MctHeuristic)

    def test_fresh_instance_per_call(self):
        assert make_heuristic("sa") is not make_heuristic("sa")

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigurationError, match="min-min"):
            make_heuristic("nope")

    def test_mode_partition(self):
        batch = {n for n in heuristic_names() if is_batch(n)}
        assert batch == {"duplex", "max-min", "min-min", "sufferage"}
        assert is_batch("min-min") and not is_batch("mct")

    def test_register_custom_and_reject_duplicates(self):
        class Custom(MctHeuristic):
            name = "custom-test"

        register_heuristic("custom-test", Custom)
        try:
            assert isinstance(make_heuristic("custom-test"), Custom)
            with pytest.raises(ConfigurationError, match="already"):
                register_heuristic("custom-test", Custom)
        finally:
            from repro.scheduling import registry

            registry._REGISTRY.pop("custom-test", None)
