"""Canonical JSON encoding helpers shared by checkpoints and the wire
protocol. Arrays are embedded as base64 of their raw float64 bytes so
round-trips are bit-exact.

Dataclasses (genomes, hyperparameters, payloads, dataset references,
jobs, results, the config, routing nodes, Params and both checkpoint
kinds, ctr state and best network) have one codec. `to_obj` writes a
dataclass as `{field: value}` plus its tags, the `ClassVar[str]`
constants such as a genome's `kind`, recursing through dicts (keys become
strings), lists and tuples; an array becomes `{"shape", "b64"}`.
`from_obj` rebuilds a value from its type hint: a dataclass by field name
(a missing field takes its default; an unknown key, a wrong tag or a
violation its `check()` lists is an error; keys older files wrote, named
in the class's plain `retired_keys`, are dropped); a union by the tags,
then the keys, of the object; `list[X]`; `dict[K, V]` with keys parsed
by K; `tuple[...]` from a list; an array by its exact shape; `object` as
it is; and scalars by exact type. An int passes for a float (and becomes
one), a bool never passes for an int, and None only where the hint
allows it. Anything else is a ParseError naming the path.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import json
import math
import os
import tempfile
import types
import typing

import numpy as np

from .errors import ParseError


def canon_dumps(obj) -> str:
    """Stable-key-order JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canon_loads(data):
    """Parsed JSON text. Bad syntax, a number past Python's digit limit
    and nesting past its recursion limit are each a ParseError."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"malformed JSON: {e}") from e


def to_obj(x):
    """The JSON form of a dataclass, dict, list, tuple or array; other
    values are returned as they are."""
    if dataclasses.is_dataclass(x):
        return {**tags(type(x)), **{k: to_obj(getattr(x, k))
                                    for k in field_types(type(x))}}
    if isinstance(x, dict):
        return {str(k): to_obj(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_obj(v) for v in x]
    if isinstance(x, np.ndarray):
        return array_to_obj(x)
    return x


@functools.cache  # resolving the hints takes far longer than a decode
def field_types(cls) -> dict:
    """A dataclass's field names and resolved type hints; read only."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def tags(cls) -> dict:
    """A dataclass's `ClassVar` constants by name; read only."""
    return {k: getattr(cls, k) for k, h in typing.get_type_hints(cls).items()
            if typing.get_origin(h) is typing.ClassVar}


def _member(args, obj):
    """The union member `obj` describes: of those whose tags it holds, the
    first with a field for each of its keys, else the first; or None."""
    def plain(a):
        return not dataclasses.is_dataclass(a) or type(obj) is a
    tagged = [a for a in args if plain(a) or type(obj) is dict and all(
        obj.get(k) == v for k, v in tags(a).items())]
    return next((a for a in tagged if plain(a) or set(obj) <= {
        *field_types(a), *tags(a)}), tagged[0] if tagged else None)


def from_obj(hint, obj, where: str):
    """The value of type `hint` that `obj`, parsed JSON, describes; a
    ParseError naming the path `where` if it describes none."""
    if type(obj) is hint or hint is object:
        return obj
    if hint is float and type(obj) is int:
        return float(obj)
    if hint is np.ndarray:
        return array_from_obj(obj, where)
    if dataclasses.is_dataclass(hint) and type(obj) is dict:
        return _dataclass(hint, obj, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        if obj is None and type(None) in args:
            return None
        member = _member([a for a in args if a is not type(None)], obj)
        if member is None:
            raise ParseError(f"{where}: want "
                             f"{' | '.join(a.__name__ for a in args)}, "
                             f"got {obj!r:.80}")
        return from_obj(member, obj, where)
    if origin is list and type(obj) is list:
        return [from_obj(args[0], v, f"{where}.{i}") for i, v in enumerate(obj)]
    if origin is dict and type(obj) is dict:
        return {_key(args[0], k, where): from_obj(args[1], v, f"{where}.{k}")
                for k, v in obj.items()}
    if origin is tuple and type(obj) is list:
        if args[-1] is Ellipsis:
            args = args[:1] * len(obj)
        if len(obj) == len(args):
            return tuple(from_obj(a, v, f"{where}.{i}")
                         for i, (a, v) in enumerate(zip(args, obj)))
    raise ParseError(f"{where}: want {hint.__name__}, got {obj!r:.80}")


def _dataclass(cls, obj: dict, where: str):
    """The `cls` that the JSON object `obj` describes."""
    hints, consts = field_types(cls), tags(cls)
    for k, v in consts.items():
        if obj.get(k) != v:
            raise ParseError(f"{where}.{k}: want {v!r}, got {obj.get(k)!r:.80}")
    skip = {*consts, *getattr(cls, "retired_keys", ())}
    for k in obj:  # not left to cls(): it takes an InitVar's name too
        if k not in hints and k not in skip:
            raise ParseError(f"{where}.{k!s:.80}: unknown key")
    values = {k: from_obj(hints[k], v, f"{where}.{k}")
              for k, v in obj.items() if k not in skip}
    try:
        value = cls(**values)
    except TypeError as e:  # a missing field
        raise ParseError(f"{where}: {e}") from e
    errs = value.check() if hasattr(cls, "check") else None
    if errs:
        raise ParseError(f"{where}: {errs[0]}")
    return value


def _key(hint, key: str, where: str):
    """A JSON object key as the key type `hint`, int or str, in its
    canonical spelling only."""
    with contextlib.suppress(ValueError):
        if str(hint(key)) == key:
            return hint(key)
    raise ParseError(f"{where}: bad key {key!r:.80}")


def array_to_obj(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def array_from_obj(obj, where: str = "array") -> np.ndarray:
    """The array `array_to_obj` wrote; a ParseError naming `where` unless
    the object holds just a shape, a list of non-negative ints, and
    base64 bytes of exactly that many float64 values."""
    if type(obj) is not dict or set(obj) != {"shape", "b64"}:
        raise ParseError(f"{where}: want shape and b64, got {obj!r:.80}")
    shape = obj["shape"]
    if type(shape) is not list or not all(type(n) is int and n >= 0
                                          for n in shape):
        raise ParseError(f"{where}.shape: want non-negative ints, "
                         f"got {shape!r:.80}")
    try:
        arr = np.frombuffer(base64.b64decode(obj["b64"]), dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where}.b64: {e}") from e
    if arr.size != math.prod(shape):
        raise ParseError(f"{where}.shape: {shape} for {arr.size} values")
    return arr.reshape(shape).copy()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
