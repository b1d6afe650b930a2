"""One benchmark operation: a fresh process that runs a halfscat CLI verb
through ``halfscat.cli.main``.

    python3 bench/op.py STAMP [--trace SPANS] [--meta] -- VERB --config ... --out ...

STAMP receives, as soon as the scene is loaded, the monotonic time at which
set-up ended, so that set-up time counts from the parent's spawn.  With
--trace the layer spans are written to SPANS when the verb returns; with
--meta the interpreter, numpy/scipy and BLAS details are added to STAMP.
The exit status is the CLI's.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _blas_runtimes() -> list[dict]:
    """Every OpenBLAS runtime mapped into this process, with its build string
    and thread count (numpy and scipy each load their own)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
        out.append(info)
    return out


def _metadata() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_runtimes(),
    }


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("stamp")
    parser.add_argument("--trace")
    parser.add_argument("--meta", action="store_true")
    args = parser.parse_args(sys.argv[1:split])
    cli_args = sys.argv[split + 1:]

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import halfscat.cli as cli

    t_imported = time.perf_counter()
    stamp = {}

    def stamped(build):
        def build_and_stamp(*a, **kw):
            scene = build(*a, **kw)
            stamp.update(setup_end=time.monotonic(), scene_hash=scene.scene_hash,
                         panels=scene.mesh.n_panels)
            _write_json(args.stamp, stamp)
            return scene

        return build_and_stamp

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.record("cli.import", t_import, t_imported)
        recorder.install()
    if not hasattr(cli, "build_scene"):
        print("op.py: halfscat.cli no longer binds build_scene", file=sys.stderr)
        return 3
    cli.build_scene = stamped(cli.build_scene)
    try:
        return cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(args.trace)
        if args.meta and stamp:
            stamp.update(_metadata())
            _write_json(args.stamp, stamp)


if __name__ == "__main__":
    sys.exit(main())
