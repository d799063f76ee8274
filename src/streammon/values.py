"""Runtime value helpers: the undefined sentinel, 64-bit integer clamping,
the NaN-propagating extrema shared by windows and expression functions, and
the strict JSON form of a value."""

from __future__ import annotations


class _Undefined:
    """Sentinel for stream accesses that have no value yet. Falsy on purpose so
    it can never be mistaken for a satisfied boolean condition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def saturate_i64(value: int) -> int:
    """The integer clamped into the signed 64-bit range."""
    return min(max(value, INT64_MIN), INT64_MAX)


def nan_max(a, b):
    """max(a, b), but NaN whenever either is NaN, so that the result does not
    depend on the order or grouping of the operands; ties keep a."""
    return b if b > a or b != b else a


def nan_min(a, b):
    """min(a, b) under the same NaN rule as nan_max."""
    return b if b < a or b != b else a


def jsonable(x):
    """x as a strict JSON value: a tuple as a list of its items' values, and
    a NaN or infinite float as the string "NaN", "Infinity" or "-Infinity"
    (null already means no value)."""
    if x.__class__ is tuple:
        return [jsonable(item) for item in x]
    if x.__class__ is float and x - x != 0.0:  # only NaN and inf give NaN
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return x
