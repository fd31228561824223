"""CDR-style marshalled-size estimation.

The simulation models on-wire bytes explicitly; applications can
either state payload sizes directly (as the benchmarks do, matching
the paper's controlled request/response sizes) or estimate them from
the actual Python value with :func:`marshalled_size`, which follows
CORBA CDR conventions: fixed-width primitives, 4-byte length prefixes
for strings/sequences, aligned struct members.
"""

from __future__ import annotations

from typing import Any

#: CDR sizes for primitive values.
_BOOL_BYTES = 1
_LONG_BYTES = 4       # values fitting CORBA long
_LONG_LONG_BYTES = 8  # larger integers and all floats (double)
_LENGTH_PREFIX = 4    # string/sequence length prefix
_TYPECODE_BYTES = 4   # per-member typecode tag for Any-typed fields

#: Guard against accidental deep recursion on cyclic structures.
_MAX_DEPTH = 32


def marshalled_size(value: Any, _depth: int = 0) -> int:
    """Estimated CDR-marshalled size of ``value`` in bytes.

    Supports the JSON-ish subset a servant payload normally is:
    None, bool, int, float, str, bytes, and (possibly nested) lists,
    tuples, dicts and sets thereof.  Unknown objects fall back to the
    size of their ``repr`` (a conservative text encoding).
    """
    if _depth > _MAX_DEPTH:
        raise ValueError("payload too deeply nested to marshal")
    if value is None:
        return _TYPECODE_BYTES
    if isinstance(value, bool):
        return _BOOL_BYTES + _TYPECODE_BYTES
    if isinstance(value, int):
        width = _LONG_BYTES if -2**31 <= value < 2**31 else _LONG_LONG_BYTES
        return width + _TYPECODE_BYTES
    if isinstance(value, float):
        return _LONG_LONG_BYTES + _TYPECODE_BYTES
    if isinstance(value, str):
        return _LENGTH_PREFIX + len(value.encode("utf-8")) + 1
    if isinstance(value, (bytes, bytearray)):
        return _LENGTH_PREFIX + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return _LENGTH_PREFIX + sum(
            marshalled_size(item, _depth + 1) for item in value)
    if isinstance(value, dict):
        total = _LENGTH_PREFIX
        for key, item in value.items():
            total += marshalled_size(key, _depth + 1)
            total += marshalled_size(item, _depth + 1)
        return total
    # Fallback: encode like a string.
    return _LENGTH_PREFIX + len(repr(value).encode("utf-8")) + 1
