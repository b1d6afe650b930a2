"""halfscat benchmark: closed-loop CLI operations, one fresh process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs operations back to back for
about S seconds; each operation is ``bench/op.py`` running one CLI verb, so
an abort costs one failed operation, not the benchmark, and every operation
pays the cold factorization cache a CLI user pays.  Before the loop, three
``--dry-run`` processes sample set-up time.  Every operation's outputs are
checked against ``bench/reference``.  The last line of standard output is
the JSON result; the line before it holds the run's metadata.  README.md in
this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
# a run must end within 180 s: an operation still running at this point is
# killed and counted as failed, and none starts after it
DEADLINE_S = 165.0


@dataclass
class Op:
    wall_s: float
    setup_s: float | None
    cpu_s: float
    rss_peak_mb: float
    signal: int | None
    failure: str | None  # None when the operation passed
    stamp: dict
    trace: dict | None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for operations: BLAS pools capped at the usable cores."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            requested = int(env.get(var, nproc()))
        except ValueError:
            requested = nproc()
        env[var] = str(max(1, min(requested, nproc())))
    env.pop("PYTHONPATH", None)
    return env


def run_process(cmd: list[str], cwd: Path, env: dict, deadline: float):
    """Start cmd and reap it with wait4, so its CPU time and peak RSS are its
    own.  Returns (wall seconds, spawn time, wait status, rusage)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 0.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; keep Popen quiet
    return wall, t0, status, usage


def run_op(workload, seed: int, scene_path: Path, op_dir: Path, threads: int, deadline: float,
           *, dry_run: bool = False, trace: bool = False, meta: bool = False) -> Op:
    op_dir.mkdir(parents=True)
    out_dir = op_dir / "out"
    cmd = [sys.executable, str(HERE / "op.py"), str(op_dir / "stamp.json")]
    if trace:
        cmd += ["--trace", str(op_dir / "spans.json")]
    if meta:
        cmd.append("--meta")
    cmd += ["--", workload.verb, "--config", str(scene_path), "--out", str(out_dir),
            "--threads", str(threads)]
    if dry_run:
        cmd.append("--dry-run")
    wall, t0, status, usage = run_process(cmd, op_dir, child_env(), deadline)

    stamp = _read_json(op_dir / "stamp.json") or {}
    sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
    code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
    if sig is not None:
        failure = f"killed by signal {sig} ({signal.Signals(sig).name})"
    elif code != 0:
        tail = (op_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        failure = f"exit {code}: {tail[0] if tail else ''}"
    elif dry_run:
        failure = None
    else:
        failure = workload.gate(out_dir, seed)
    trace_data = _read_json(op_dir / "spans.json") if trace and failure is None else None
    return Op(
        wall_s=wall,
        setup_s=stamp["setup_end"] - t0 if "setup_end" in stamp else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_peak_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        signal=sig,
        failure=failure,
        stamp=stamp,
        trace=trace_data,
    )


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def measure(workload, seed: int, seconds: int, traced: bool, run_dir: Path, deadline: float):
    """Set-up probes, then the closed loop.  Returns (probes, ops, traced ops)."""
    scene_path = run_dir / "scene.yaml"
    workloads.write_scene(workload.scene(seed), scene_path)
    threads = min(workload.threads, nproc())

    probes = [run_op(workload, seed, scene_path, run_dir / f"probe-{i}", threads, deadline,
                     dry_run=True, meta=i == 0) for i in range(SETUP_PROBES)]
    for p in probes:
        if p.failure:
            raise RuntimeError(f"set-up probe failed: {p.failure}")

    ops, traced_ops = [], []
    start = time.monotonic()
    while True:
        # in a traced run every other operation is traced, starting untraced
        trace_this = traced and len(ops) % 2 == 1
        op = run_op(workload, seed, scene_path, run_dir / f"op-{len(ops)}", threads, deadline,
                    trace=trace_this)
        ops.append(op)
        if trace_this:
            traced_ops.append(op)
        _log(f"{workload.name} op {len(ops)}: {op.wall_s:.2f} s "
             f"{'traced ' if trace_this else ''}{op.failure or 'ok'}")
        shutil.rmtree(run_dir / f"op-{len(ops) - 1}", ignore_errors=True)
        now = time.monotonic()
        longest = max(o.wall_s for o in ops)
        if now + longest > deadline:
            break
        if traced and not traced_ops:
            continue
        # stop when one more operation as long as the longest so far would
        # overrun --seconds
        if now - start + longest > seconds:
            break
    return probes, ops, traced_ops


def end_to_end(probes, ops) -> dict:
    setup = [p.setup_s for p in probes + ops if p.setup_s is not None]
    return {
        "wall_s": {"value": statistics.median(o.wall_s for o in ops), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cpu_s": {"value": statistics.median(o.cpu_s for o in ops), "unit": "s"},
        "rss_peak_mb": {"value": statistics.median(o.rss_peak_mb for o in ops), "unit": "MiB"},
    }


def per_layer(ops, traced_ops) -> tuple[dict, str | None]:
    """Per-layer metrics of the first traced operation that completed, and a
    complaint if the counts of two completed traced operations differ."""
    untraced_wall = statistics.median(o.wall_s for o in ops
                                      if not any(o is t for t in traced_ops))
    done = [o for o in traced_ops if o.trace is not None]
    layers = [spans.layer_metrics(o.trace, o.wall_s) for o in done]
    values = dict(layers[0] if layers else spans.layer_metrics({"spans": [], "unwrapped": []}, 1))
    values["trace.ops"] = len(done)
    values["trace.overhead_s"] = (done[0].wall_s - untraced_wall) if done else 0.0
    values["fail_ratio"] = sum(o.failure is not None for o in ops) / len(ops)
    complaint = None
    for other in layers[1:]:
        for key, v in layers[0].items():
            if isinstance(v, int) and other[key] != v:
                complaint = f"count {key} differs between traced operations: {v} vs {other[key]}"
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    return metrics, complaint


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def metadata(workload, seed: int, probes, ops) -> dict:
    meta = dict(probes[0].stamp)
    meta.pop("setup_end", None)
    failures = {}
    for o in ops:
        if o.failure:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    meta.update(
        workload=workload.name,
        seed=seed,
        nproc=nproc(),
        machine=platform.machine(),
        threads=min(workload.threads, nproc()),
        blas_env={k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")},
        operations=len(ops),
        failures=failures,
        signals=sorted({o.signal for o in ops if o.signal is not None}),
    )
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like Ctrl-C, so the running operation is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "halfscat" / "cli.py").is_file():
        _log(f"error: no halfscat sources under {ROOT / 'src'}")
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _log(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2

    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        try:
            probes, ops, traced_ops = measure(workload, args.seed, args.seconds,
                                              bool(args.trace), run_dir, deadline)
        except RuntimeError as exc:
            _log(f"error: {exc}")
            return 2
        failed = sum(o.failure is not None for o in ops)
        # a process that ran to completion must have produced the reference
        # outputs; deaths by signal are failures, not wrong answers
        wrong = [o.failure for o in ops if o.failure and o.signal is None]
        if args.trace:
            metrics, complaint = per_layer(ops, traced_ops)
            if complaint:
                wrong.append(complaint)
        else:
            metrics = end_to_end(probes, ops)
        for w in wrong:
            _log(f"incorrect: {w}")
        print(json.dumps({"meta": metadata(workload, args.seed, probes, ops)}))
        print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
