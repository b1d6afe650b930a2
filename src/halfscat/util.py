"""Small shared helpers: canonical JSON and content hashing."""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj) -> str:
    """Stable serialization for content hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(x):
    try:
        import numpy as np

        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (np.floating, np.integer)):
            return x.item()
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(f"not JSON serializable: {type(x)!r}")


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]
