"""Canonical JSON encoding helpers shared by checkpoints and the wire
protocol. Arrays are embedded as base64 of their raw float64 bytes so
round-trips are bit-exact."""

from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from .errors import ParseError


def canon_dumps(obj) -> str:
    """Stable-key-order JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canon_loads(data):
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON at position {e.pos}: {e.msg}") from e


def array_to_obj(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def array_from_obj(obj) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["b64"])
        arr = np.frombuffer(raw, dtype=np.float64).reshape(obj["shape"]).copy()
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad array object: {e}") from e
    return arr


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
