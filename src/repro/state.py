"""Specs of checkpointed state, and the check that holds a payload to them.

Each part that saves and restores itself through a service checkpoint
declares the spec of its ``state_dict()`` next to it, from the kinds
:func:`conform` knows; :func:`~repro.service.checkpoint.validate_checkpoint`
composes them, so a ``restore`` only ever sees well-typed state.  This
module imports nothing of :mod:`repro` but :mod:`repro.errors`, so an
owner anywhere in the package can use it without an import cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import NoneType, UnionType
from typing import Any

import numpy as np

from repro.errors import CheckpointError, ConfigurationError

__all__ = ["Obj", "INDEX", "conform", "rng_state", "restore_rng"]


@dataclass(frozen=True)
class Obj:
    """Spec of a JSON object with exactly ``fields`` (field → spec), or of
    ``None`` too when ``nullable``."""

    what: str
    fields: dict
    nullable: bool = False


#: Key spec of an object keyed by request index (``{INDEX: value spec}``).
INDEX = "request index"


def conform(value: Any, spec: Any, where: str) -> None:
    """Refuse ``value`` unless it conforms to ``spec``, naming ``where``.

    A spec is a type (``float`` admits integers but neither NaN nor
    infinity, and booleans are never numbers), ``spec | None`` for a
    nullable value, a frozenset of the admitted strings, ``[item]`` for a
    list, ``(first, second)`` for a pair, ``{key kind: item}`` for an
    object keyed by request index (:data:`INDEX`) or by any string
    (``str``), or an :class:`Obj` with exact fields (or ``None``, when
    the :class:`Obj` is nullable).

    Raises:
        CheckpointError: naming the key path of the first offending value.
    """
    if isinstance(spec, Obj):
        if value is None and spec.nullable:
            return
        conform(value, dict, where)
        bad = spec.fields.keys() ^ value.keys()
        if bad:
            raise CheckpointError(
                f"malformed {spec.what} in checkpoint {where} "
                f"(keys off by {sorted(bad)})"
            )
        for key, field in spec.fields.items():
            conform(value[key], field, f"{where}.{key}")
    elif isinstance(spec, UnionType):
        if value is not None:
            (inner,) = set(spec.__args__) - {NoneType}
            conform(value, inner, where)
    elif isinstance(spec, frozenset):
        if not isinstance(value, str) or value not in spec:
            raise CheckpointError(
                f"checkpoint {where} must be one of {sorted(spec)}, got {value!r}"
            )
    elif isinstance(spec, dict):
        ((keys, item),) = spec.items()
        conform(value, dict, where)
        for key, member in value.items():
            if not isinstance(key, str) or (keys == INDEX and not key.isdecimal()):
                raise CheckpointError(
                    f"checkpoint {where} key {key!r} is not a {keys}"
                )
            conform(member, item, f"{where}[{key}]")
    elif isinstance(spec, list):
        conform(value, list, where)
        for i, member in enumerate(value):
            conform(member, spec[0], f"{where}[{i}]")
    elif isinstance(spec, tuple):
        conform(value, list, where)
        if len(value) != len(spec):
            raise CheckpointError(
                f"checkpoint {where} must hold {len(spec)} items, got {value!r}"
            )
        for i, (member, item) in enumerate(zip(value, spec)):
            conform(member, item, f"{where}[{i}]")
    elif (
        not isinstance(value, (int, float) if spec is float else spec)
        or (spec in (int, float) and isinstance(value, bool))
        or (spec is float and not math.isfinite(value))
    ):
        kind = "a finite number" if spec is float else f"of type {spec.__name__}"
        raise CheckpointError(f"checkpoint {where} must be {kind}, got {value!r}")


def _jsonify(state: Any) -> Any:
    if isinstance(state, dict):
        return {k: _jsonify(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    if isinstance(state, np.generic):
        return state.item()
    return state


def _unjsonify(state: Any) -> Any:
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.array(state["__ndarray__"], dtype=state["dtype"])
        return {k: _unjsonify(v) for k, v in state.items()}
    return state


def rng_state(rng: np.random.Generator) -> dict:
    """``rng``'s bit-generator state with numpy values made JSON-ready."""
    return _jsonify(rng.bit_generator.state)


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Put ``rng`` back to a state captured by :func:`rng_state`.

    Raises:
        ConfigurationError: when numpy refuses the state.
    """
    try:
        rng.bit_generator.state = _unjsonify(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"rng state refused by numpy: {exc}") from exc
