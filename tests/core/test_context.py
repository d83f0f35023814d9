"""Tests for trust contexts."""

import pytest

from repro.core.context import EXECUTION, TrustContext


class TestTrustContext:
    def test_equality_by_name(self):
        assert TrustContext("execute") == TrustContext("execute", "different desc")
        # description participates in equality only through frozen dataclass
        # semantics when both fields differ; name alone must not collide.
        assert TrustContext("execute") != TrustContext("store")

    def test_hashable(self):
        contexts = {TrustContext("a"), TrustContext("a"), TrustContext("b")}
        assert len(contexts) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TrustContext("")

    def test_str(self):
        assert str(EXECUTION) == "execute"

    def test_paper_example_contexts_present(self):
        contexts = [TrustContext(n) for n in ("execute", "store", "print", "display")]
        assert len(set(contexts)) == 4
        assert EXECUTION in contexts
