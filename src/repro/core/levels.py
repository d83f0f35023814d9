"""Discrete trust levels used throughout the Grid trust model.

The paper (Section 3) quantises trust into six ordered levels, ``A`` (*very
low trust*) through ``F`` (*extremely high trust*), and assigns them the
numeric values 1 through 6 for cost computations (Section 4.1).  Offered
trust levels (OTLs) only span ``A``..``E``: the paper reserves ``F`` for
*required* trust levels so a domain can force supplemental security no matter
what is offered (Table 1, row ``F``).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "TrustLevel",
    "MIN_LEVEL",
    "MAX_LEVEL",
    "MAX_OFFERED_LEVEL",
    "offered_levels",
    "required_levels",
]


class TrustLevel(enum.IntEnum):
    """Ordered trust level ``A`` (lowest, 1) .. ``F`` (highest, 6).

    ``TrustLevel`` is an :class:`~enum.IntEnum` so levels compare and subtract
    like the integers the paper maps them to::

        >>> TrustLevel.D - TrustLevel.B
        2
        >>> TrustLevel.C < TrustLevel.E
        True
    """

    A = 1
    B = 2
    C = 3
    D = 4
    E = 5
    F = 6

    @classmethod
    def from_value(cls, value: int | str | TrustLevel) -> TrustLevel:
        """Coerce ``value`` into a :class:`TrustLevel`.

        Accepts an existing level, a numeric value 1..6, or a (case
        insensitive) letter ``"a"``..``"f"``.

        Raises:
            ConfigurationError: if the value does not correspond to a level.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            name = value.strip().upper()
            try:
                return cls[name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown trust level name: value must be a letter A..F, got {value!r}"
                ) from None
        try:
            numeric = int(value)
            if numeric != value:  # reject non-integral floats like 2.5
                raise ValueError
            return cls(numeric)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"unknown trust level value: value must be an integer 1..6, got {value!r}"
            ) from None

    @property
    def is_offerable(self) -> bool:
        """Whether the level may appear as an *offered* trust level.

        Per the paper, OTLs range over ``A``..``E`` only; ``F`` exists solely
        on the *required* side of the relationship.
        """
        return self is not TrustLevel.F

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


MIN_LEVEL = TrustLevel.A
MAX_LEVEL = TrustLevel.F
MAX_OFFERED_LEVEL = TrustLevel.E


def offered_levels() -> Iterator[TrustLevel]:
    """Iterate the levels that are valid *offered* trust levels (``A``..``E``)."""
    return iter(level for level in TrustLevel if level.is_offerable)


def required_levels() -> Iterator[TrustLevel]:
    """Iterate the levels that are valid *required* trust levels (``A``..``F``)."""
    return iter(TrustLevel)
