"""Small shared helpers: canonical JSON, content hashing and the CSV table writer."""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np


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
