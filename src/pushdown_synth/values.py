"""Runtime value domain for the DSL interpreter.

Arithmetic is exact: floats are represented as rationals so the interpreter
and the solver (Real theory) agree on every ground term.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union


class _NegInf:
    """Sentinel below every rational; only comparisons are defined on it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


class _NoneVal:
    """The None constructor of Optional values."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "None"


NONE = _NoneVal()


# Generated kernels (`interp`) allocate a `Some` without `__init__`: a bare
# `object.__new__` instance whose `value` slot is set through the slot's
# descriptor. So it must stay a plain frozen record of that one slot, with no
# `__post_init__` and no other field.
@dataclass(frozen=True, slots=True)
class Some:
    value: "Value"

    def __repr__(self):
        return f"Some({self.value!r})"


Value = Union[bool, int, Fraction, str, _NegInf, _NoneVal, Some, tuple, list]

# literal kind -> the value of a `Lit` of that kind, from its `value` field
LITERALS = {"int": int, "float": Fraction, "bool": bool, "str": str,
            "neginf": lambda v: NEG_INF, "none": lambda v: NONE}


class EvalError(Exception):
    """Raised when evaluation hits a case the type system should have ruled out."""


def num_lt(a: Value, b: Value) -> bool:
    if a is NEG_INF:
        return b is not NEG_INF
    if b is NEG_INF:
        return False
    return a < b


def num_le(a: Value, b: Value) -> bool:
    if a is NEG_INF:
        return True
    if b is NEG_INF:
        return False
    return a <= b


_SCALARS = frozenset((int, Fraction, str, bool))


def values_equal(a: Value, b: Value) -> bool:
    if type(a) is type(b) and type(a) in _SCALARS:
        return a == b
    if a is NEG_INF or b is NEG_INF:
        return a is b
    if a is NONE or b is NONE:
        return a is b
    if isinstance(a, Some) or isinstance(b, Some):
        return (
            isinstance(a, Some)
            and isinstance(b, Some)
            and values_equal(a.value, b.value)
        )
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    return a == b


def fmt_value(v: Value) -> str:
    """Render a value in DSL source syntax (used by emit and JSON output)."""
    if v is NEG_INF:
        return "-inf"
    if v is NONE:
        return "None"
    if isinstance(v, Some):
        return fmt_value(v.value)
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return f"{v.numerator}.0"
        try:
            # positional digits: the DSL has no exponent notation
            text = format(Decimal(repr(float(v))), "f")
            if Fraction(text) == v:
                return text
        except OverflowError:  # past the float range
            pass
        return f"({v.numerator}.0 / {v.denominator}.0)"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"' + v + '"'
    if isinstance(v, tuple):
        return tuple_text(fmt_value(x) for x in v)
    if isinstance(v, list):
        return "[" + ", ".join(fmt_value(x) for x in v) + "]"
    raise EvalError(f"unprintable value {v!r}")


def tuple_text(parts) -> str:
    """The DSL text of a tuple of the given item texts: `(x,)` for one."""
    parts = list(parts)
    inner = ", ".join(parts)
    return f"({inner},)" if len(parts) == 1 else f"({inner})"
