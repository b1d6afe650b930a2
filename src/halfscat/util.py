"""Small shared helpers: config field checks, canonical JSON, content hashing,
the even cut of an index range into pieces and the memory budget of the
process."""

from __future__ import annotations

import hashlib
import json
import math
import resource
from pathlib import Path

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


def even_slices(n: int, budget: int) -> list[slice]:
    """Slices that cover range(n) in the fewest pieces of at most ``budget``
    items, their lengths differing by at most one: 144 items in pieces of
    at most 128 are cut 72 + 72, not 128 + 16."""
    pieces = max(1, -(-n // budget))
    bounds = [p * n // pieces for p in range(pieces + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _proc_kib(path: str, key: str) -> float | None:
    """The value of the ``key:`` line of a /proc file in KiB, or None."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _cgroup_headroom_bytes() -> int | None:
    """memory.max less memory.current of this process's cgroup v2, or None
    where there is no such cgroup or its memory is unlimited."""
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        group = Path("/sys/fs/cgroup") / path.lstrip("/")
        limit = (group / "memory.max").read_text(encoding="ascii").strip()
        if limit == "max":
            return None
        return int(limit) - int((group / "memory.current").read_text(encoding="ascii"))
    except (OSError, ValueError, StopIteration):
        return None


def memory_budget_mb() -> tuple[float, str] | None:
    """What this process can still allocate, in MiB, and the bound that sets
    it: the smallest of MemAvailable, the headroom under the RLIMIT_AS soft
    limit (less VmSize) and the headroom under the cgroup v2 memory.max
    (less memory.current), each taken only where it can be read.  None
    where none can."""
    bounds = {}
    available = _proc_kib("/proc/meminfo", "MemAvailable")
    if available is not None:
        bounds["MemAvailable"] = available / 2**10
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    size = _proc_kib("/proc/self/status", "VmSize")
    if limit != resource.RLIM_INFINITY and size is not None:
        bounds["RLIMIT_AS"] = limit / 2**20 - size / 2**10
    cgroup = _cgroup_headroom_bytes()
    if cgroup is not None:
        bounds["cgroup memory.max"] = cgroup / 2**20
    if not bounds:
        return None
    bound = min(bounds, key=bounds.get)
    return bounds[bound], bound
