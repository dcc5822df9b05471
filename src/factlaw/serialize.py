"""Canonical JSON helpers and the exact-rational wire format.

Probabilities travel through files as strings ``"num/den"`` in lowest terms
(``"3/10"``, ``"1/1"``), never as floats, so that laws survive a round trip
bit-for-bit.  Canonical dumps sort object keys and use a fixed separator
style, which makes output digests reproducible.

Every JSON value that becomes a number is read here, by one of two readers:
:func:`read_int` for integers (config keys and the integer fields of input
files alike) and :func:`read_number` for exact values.  Both raise
``ValueError`` naming the field.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Any


def fraction_to_str(value: Fraction) -> str:
    """Render an exact probability as ``"num/den"`` in lowest terms."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def read_int(value: Any, what: str) -> int:
    """An integer: an int, an integral finite float, or a numeric string.

    Booleans, fractional or non-finite floats and anything else raise
    ``ValueError``, so ``2.5`` or ``true`` is never read as ``2`` or ``1``.
    """
    if type(value) is int:  # what JSON gives for an integer; the common case
        return value
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def read_collection(kind: type, value: Any) -> Any:
    """``kind(value)``, with the ``TypeError`` of a value of the wrong kind
    (``None``, a number for a collection, an unhashable member for a set)
    and the ``OverflowError`` of an infinite float for a ``Fraction``
    raised as ``ValueError``."""
    try:
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{value!r} does not convert to a {kind.__name__}") from None


def read_number(value: Any, what: str) -> int | Fraction:
    """An exact number: an int, a finite float, or a "num/den" or decimal string.

    An int passes through unchanged.  A float reads as the decimal it shows,
    like the same text on a flag: 0.01 and "0.01" are both 1/100.  Anything
    else, a zero denominator included, raises ``ValueError``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(repr(value))
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a number or num/den, got {value!r}")


def canonical_dumps(doc: Any) -> str:
    """Serialize ``doc`` to canonical JSON (sorted keys, stable separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def dump_json(doc: Any, path) -> None:
    """Write ``doc`` as canonical JSON plus a trailing newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


def load_json(path) -> Any:
    """Read one JSON document; a document nested too deep is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deep to decode") from None


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_of_doc(doc: Any) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("ascii")).hexdigest()
