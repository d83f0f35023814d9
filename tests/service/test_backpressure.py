"""Tests for the scheduler→ingestion backpressure latch."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.backpressure import BackpressureLatch


class TestBackpressureLatch:
    def test_validations(self):
        with pytest.raises(ConfigurationError):
            BackpressureLatch(0)

    def test_low_defaults_to_half_of_high(self):
        assert BackpressureLatch(10).low == 5
        assert BackpressureLatch(1).low == 0

    def test_hysteresis(self):
        latch = BackpressureLatch(4)
        assert not latch.update(3)
        assert latch.update(4)
        assert latch.engaged
        # Draining below high but above low (2) keeps the latch engaged.
        assert not latch.update(3)
        assert latch.engaged
        assert latch.update(2)
        assert not latch.engaged
        assert latch.engagements == 1
        assert latch.releases == 1

    def test_state_round_trip(self):
        latch = BackpressureLatch(4)
        latch.update(4)
        latch.update(0)
        latch.update(9)
        clone = BackpressureLatch(4)
        clone.restore(latch.state_dict())
        assert clone.engaged
        assert clone.engagements == 2
        assert clone.releases == 1
