"""Small shared helpers: config field checks, canonical JSON, content hashing,
the CSV table writer and the even cut of an index range into pieces."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from .errors import SceneConfigError


def require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise SceneConfigError(f"{where}.{key}" if where else key, "missing required key")
    return cfg[key]


def check_keys(cfg: dict, allowed: set[str], where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise SceneConfigError(f"{where}.{key}" if where else key, "unknown key")


def as_mapping(value, where: str, allowed: set[str] | None = None) -> dict:
    """``value`` as a config section; with ``allowed``, its keys must be among them."""
    if not isinstance(value, dict):
        raise SceneConfigError(where, f"expected a mapping, got {value!r}")
    if allowed is not None:
        check_keys(value, allowed, where)
    return value


def as_float(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneConfigError(where, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SceneConfigError(where, "must be finite")
    if positive and value <= 0:
        raise SceneConfigError(where, f"must be > 0, got {value!r}")
    return value


def as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneConfigError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SceneConfigError(where, f"must be >= {minimum}, got {value}")
    return value


def as_vec3(value, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SceneConfigError(where, f"expected [x, y, z], got {value!r}")
    return [as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def canonical_json(obj) -> str:
    """Stable serialization for content hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)!r}")


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def scene_comment(scene_hash: str | None) -> str | None:
    """Table comment carrying the scene hash; None (no hash) writes no comment."""
    return None if scene_hash is None else f"scene={scene_hash}"


def write_table(path, comment: str | None, header: list[str], columns) -> None:
    """The one CSV artifact format: an optional ``# comment`` line ending in
    ``\\n``, then the header and one row per entry of the equal-length
    ``columns``, each ending in ``\\r\\n``.  Integer columns print as
    integers, every other column with ``%.17g``."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns)
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\r\n")
        fh.write((row + "\r\n") * len(columns[0]) % values)


def even_slices(n: int, budget: int) -> list[slice]:
    """Slices that cover range(n) in the fewest pieces of at most ``budget``
    items, their lengths differing by at most one: 144 items in pieces of
    at most 128 are cut 72 + 72, not 128 + 16."""
    pieces = max(1, -(-n // budget))
    bounds = [p * n // pieces for p in range(pieces + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
