"""Argument kinds: the one range check of each public argument.

A kind maps (value, name) to the value as a JSON spec wants it, or raises
Rejected naming the argument.  Each public function checks its arguments
against its own table {parameter: kind}, or admits a single one: the probes,
`convergence_study` and `integrate`, the field operators of `spectral`, `Grid`
and the coefficient and regime sets of `models`; `config.py` parses JSON
with the same kinds.  A bool is never a number.
"""

from __future__ import annotations

import math
import numbers
from functools import partial

# A step that ends this close to an event lands on it, so a span of time must exceed it.
_LANDING_TOL = 1e-13


class Rejected(Exception):
    """A value outside its kind; `admit` raises it again as the caller's LaswError."""


def admit(error, kind, value, name):
    """kind(value, name), a rejection raised as error."""
    try:
        return kind(value, name)
    except Rejected as err:
        raise error(str(err)) from None


def check(error, table: dict, values) -> None:
    """Admit values[p] for each parameter p of table; the caller keeps its own values."""
    for name, kind in table.items():
        admit(error, kind, values[name], name)


def _number(raw, name, *, integer=False, positive=False, nonneg=False, finite=True, at_most=math.inf):
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral if integer else numbers.Real):
        raise Rejected(f"{name}: expected {'an integer' if integer else 'a number'}, got {raw!r}")
    try:
        v = int(raw) if integer else float(raw)
    except OverflowError:  # an int past the float range
        raise Rejected(f"{name}: must be finite") from None
    if finite and not integer and not math.isfinite(v):
        raise Rejected(f"{name}: must be finite")
    if positive and not v > 0:  # nan fails this test and the next
        raise Rejected(f"{name}: must be positive, got {v}")
    if nonneg and not v >= 0:
        raise Rejected(f"{name}: must be nonnegative, got {v}")
    if v > at_most:
        raise Rejected(f"{name}: must be at most {at_most}, got {v}")
    return v


_positive = partial(_number, positive=True)
_nonneg = partial(_number, nonneg=True)
_bound = partial(_number, positive=True, finite=False)  # a threshold; +inf switches its test off
_integer = partial(_number, integer=True)
_count = partial(_number, integer=True, positive=True)
_seed = partial(_number, integer=True, nonneg=True)
_decay = partial(_number, nonneg=True, finite=False)  # a decay exponent; +inf is the steepest


def _entropy(raw, name):
    """A random draw's seed: a `_seed`, or a non-empty list or tuple of them (as a tuple)."""
    return _list_of(_seed)(raw, name) if isinstance(raw, (list, tuple)) else _seed(raw, name)


def _span(raw, name):
    """A span of time that takes a step: finite and past the landing tolerance."""
    if not (v := _number(raw, name)) > _LANDING_TOL:
        raise Rejected(f"{name}: must exceed the landing tolerance {_LANDING_TOL}, got {v}")
    return v


def _grid(raw, name):
    """Number of grid points: an even integer >= 8."""
    if (n := _integer(raw, name)) < 8 or n % 2:
        raise Rejected(f"{name}: must be an even integer >= 8, got {n}")
    return n


def _typed(cls, what):
    def parse(raw, name):
        if not isinstance(raw, cls):
            raise Rejected(f"{name}: expected {what}, got {raw!r}")
        return raw
    return parse


_string, _boolean, _object = _typed(str, "a string"), _typed(bool, "a boolean"), _typed(dict, "an object")


def _optional(kind):
    return lambda raw, name: None if raw is None else kind(raw, name)


def _list_of(kind, *, least=1):
    """A list or tuple of `least` or more values of kind, as a tuple."""
    def parse(raw, name):
        if not isinstance(raw, (list, tuple)) or len(raw) < least:
            raise Rejected(f"{name}: expected a list of {least} or more values, got {raw!r}")
        return tuple(kind(v, f"{name}[{i}]") for i, v in enumerate(raw))
    return parse


def _non_increasing(raw, name):
    """A non-empty list of nonnegative numbers, none above the one before it."""
    values = _list_of(_nonneg)(raw, name)
    if any(b > a for a, b in zip(values, values[1:])):
        raise Rejected(f"{name}: must be non-increasing, got {list(values)}")
    return values
