"""perfbench's span targets resolve against the code as it is.

perfbench charges each layer to methods it names by string.  A target
whose method was renamed or deleted is skipped, so its layer reads zero
with no error.  This pins the unresolved targets to the one known stale
entry: deleting any other spanned method fails here, and retargeting the
stale one makes this test ask to be updated.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.scheduling import make_heuristic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: The one target known not to resolve: the method the ``costs.realized``
#: span names was folded into ``CostProvider.realized_costs``.
STALE = ["repro.scheduling.costs.CostProvider.realized_ecc_row"]


def _spans():
    """Import ``perfbench/spans.py`` without writing into ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_only_the_known_stale_layer_target_is_missing():
    spans = _spans()
    found, missing = spans.resolve(spans.LAYER_TARGETS)
    assert missing == STALE
    assert len(found) == len(spans.LAYER_TARGETS) - len(STALE)


def test_kernel_target_resolves_on_the_min_min_kernel():
    spans = _spans()
    kernel = type(make_heuristic("min-min"))
    found, missing = spans.resolve((), extra=((spans.KERNEL_TARGET, kernel),))
    assert missing == []
    assert [attr for _, attr, _ in found] == ["plan"]
