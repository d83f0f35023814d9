"""Tests for the heuristic registry."""

import pytest

from repro.errors import ConfigurationError
from repro.scheduling.base import BatchHeuristic, ImmediateHeuristic
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.registry import (
    batch_names,
    heuristic_names,
    immediate_names,
    is_batch,
    make_heuristic,
    reference_names,
    register_heuristic,
)

#: One reference oracle per heuristic plus one production kernel for each
#: batch heuristic of the paper's Section 4.1 family.
REFERENCE_NAMES = (
    "duplex", "kpb", "max-min", "mct", "met", "min-min", "olb", "sa", "sufferage",
)
PRODUCTION_NAMES = ("max-min-fast", "min-min-fast", "sufferage-fast")


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
        assert heuristic_names() == tuple(sorted(REFERENCE_NAMES + PRODUCTION_NAMES))

    def test_reference_names_list_each_heuristic_once(self):
        assert reference_names() == REFERENCE_NAMES
        for name in PRODUCTION_NAMES:
            assert make_heuristic(name).kernel != "reference"

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
        assert set(immediate_names()) | set(batch_names()) == set(heuristic_names())
        assert not set(immediate_names()) & set(batch_names())
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
