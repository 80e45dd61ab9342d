import pytest

from rhetseg.errors import DataError
from rhetseg.roles import NUM_ROLES, ROLE_NAMES, RhetoricalRole


def test_fixed_id_assignment():
    assert NUM_ROLES == 7
    assert ROLE_NAMES == ("None", "Facts", "Issue", "ArgumentsOfPetitioner",
                          "ArgumentsOfRespondent", "Reasoning", "Decision")
    for i, name in enumerate(ROLE_NAMES):
        role = RhetoricalRole(i)
        assert int(role) == i
        assert role.canonical_name == name


def test_parse_accepts_names_ids_and_roles():
    assert RhetoricalRole.parse("Facts") is RhetoricalRole.FACTS
    assert RhetoricalRole.parse(6) is RhetoricalRole.DECISION
    assert RhetoricalRole.parse(RhetoricalRole.ISSUE) is RhetoricalRole.ISSUE


def test_parse_rejects_unknowns_with_the_offender_named():
    with pytest.raises(DataError, match="'Fact'"):
        RhetoricalRole.parse("Fact")
    with pytest.raises(DataError):
        RhetoricalRole.parse(7)
    with pytest.raises(DataError):
        RhetoricalRole.parse(-1)
    with pytest.raises(DataError):
        RhetoricalRole.parse(True)
    with pytest.raises(DataError):
        RhetoricalRole.parse(None)


def test_parse_is_case_sensitive():
    assert RhetoricalRole.parse("Reasoning") is RhetoricalRole.REASONING
    with pytest.raises(DataError):
        RhetoricalRole.parse("reasoning")


def if_chain_parse(value):
    """Reference for RhetoricalRole.parse: a type test per kind of value,
    then a range check of the id or a search of the names."""
    if isinstance(value, RhetoricalRole):
        return value
    if isinstance(value, bool):
        raise DataError(f"cannot parse role from {value!r}")
    if isinstance(value, int):
        if not 0 <= value < NUM_ROLES:
            raise DataError(f"role id out of range [0, {NUM_ROLES}): {value}")
        return RhetoricalRole(value)
    if isinstance(value, str):
        try:
            return RhetoricalRole(ROLE_NAMES.index(value))
        except ValueError:
            raise DataError(
                f"unknown role name {value!r}; expected one of {', '.join(ROLE_NAMES)}"
            ) from None
    raise DataError(f"cannot parse role from {value!r}")
