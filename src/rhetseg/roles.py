"""The closed label set: seven rhetorical roles with a fixed integer mapping.

Every sentence of a judgment is assigned exactly one role. The integer ids are
part of the on-disk and CLI contracts (confusion-matrix axes, instruction
export, checkpoint label echo) and must never be renumbered.
"""

from __future__ import annotations

import enum

from .errors import DataError

ROLE_NAMES: tuple[str, ...] = (
    "None",
    "Facts",
    "Issue",
    "ArgumentsOfPetitioner",
    "ArgumentsOfRespondent",
    "Reasoning",
    "Decision",
)

NUM_ROLES = len(ROLE_NAMES)


class RhetoricalRole(enum.IntEnum):
    NONE = 0
    FACTS = 1
    ISSUE = 2
    ARGUMENTS_OF_PETITIONER = 3
    ARGUMENTS_OF_RESPONDENT = 4
    REASONING = 5
    DECISION = 6

    @property
    def canonical_name(self) -> str:
        return ROLE_NAMES[int(self)]

    @classmethod
    def parse(cls, value: "int | str | RhetoricalRole") -> "RhetoricalRole":
        """Accept an id, a canonical name, or an existing role, by one dict
        lookup. Only ints and strs other than bool are looked up, as True and
        1.0 hash like an id; the exact-type test is the fast path for JSON."""
        if type(value) not in (int, str) and (isinstance(value, bool) or not isinstance(value, (int, str))):
            raise DataError(f"cannot parse role from {value!r}")
        role = _ROLE_OF.get(value)
        if role is None:
            if isinstance(value, int):
                raise DataError(f"role id out of range [0, {NUM_ROLES}): {value}")
            raise DataError(f"unknown role name {value!r}; expected one of {', '.join(ROLE_NAMES)}")
        return role


# Each canonical name and each id -> its role.
_ROLE_OF = {key: role for role in RhetoricalRole for key in (ROLE_NAMES[role], int(role))}
