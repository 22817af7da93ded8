"""The one type rule for config fields, read from each field's annotation: an
int field takes an integer and a float field any number (kept as given, so
config echoes keep their bytes), neither a bool; an enum field takes a member
or its value; a `tuple[X, ...]` field a list or tuple, entry by entry."""

import dataclasses
import enum
import functools
import numbers
import typing

__all__ = ["as_plain", "check_fields", "checked"]

# int and float fields: the class a value must be, and its kind in a refusal.
_NUMBERS = {int: (numbers.Integral, "an integer", "integers"), float: (numbers.Real, "a number", "numbers")}


def _kind(tp, plural: bool = False) -> str:
    if issubclass(tp, enum.Enum):
        return ("names from " if plural else "one of ") + ", ".join(m.value for m in tp)
    return _NUMBERS[tp][1 + plural] if tp in _NUMBERS else f"a {tp.__name__}"


def _entry(tp, value):
    # `value` as a field of type `tp` holds it, or None if it is not one.
    if issubclass(tp, enum.Enum):
        return next((m for m in tp if value is m or type(value) is type(m.value) and value == m.value), None)
    ok = not isinstance(value, bool) and isinstance(value, _NUMBERS[tp][0] if tp in _NUMBERS else tp)
    return (int(value) if tp is int else value) if ok else None


def checked(name: str, tp, value):
    """`value` as the field `name` of type `tp` holds it, or a ValueError naming `name`."""
    if typing.get_origin(tp) is not tuple:
        out = _entry(tp, value)
        if out is None:
            raise ValueError(f"{name} must be {_kind(tp)}, got {value!r}")
        return out
    entry_tp = typing.get_args(tp)[0]
    entries = tuple(_entry(entry_tp, v) for v in value) if isinstance(value, (list, tuple)) else None
    if entries is None or None in entries:
        must = "be a list of" if entries is None else "all be"
        raise ValueError(f"{name} must {must} {_kind(entry_tp, plural=True)}, got {value!r}")
    return entries


@functools.cache
def _hints(cls) -> dict:
    # get_type_hints evaluates every string annotation again on each call.
    return typing.get_type_hints(cls)


def check_fields(obj) -> None:
    """Hold each field of the dataclass `obj` as the rule reads it."""
    for name, tp in _hints(type(obj)).items():
        setattr(obj, name, checked(name, tp, getattr(obj, name)))


def as_plain(value):
    """The rule's inverse, for JSON: dataclass -> dict, tuple -> list, enum -> value."""
    if dataclasses.is_dataclass(value):
        return {f.name: as_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [as_plain(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value
