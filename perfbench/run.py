"""The factcancel benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|sweep|cli --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: a pass runs its operations
one after another, and passes run one after another, each in a fresh
interpreter (one_pass.py), until ``--seconds`` have passed.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and the
object holds the per-layer metrics.  Outputs are checked after every pass;
any mismatch makes ``correct`` false and the exit code 1.  Full results,
the environment and the spans of traced passes go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "sweep", "cli")

#: p90 is reported only with at least ten samples beyond it
MIN_LATENCY_SAMPLES = 100
#: no new pass starts after this, so a run ends well within 180 s
PASS_START_LIMIT_S = 120.0
PASS_TIMEOUT_S = 170.0
CLI_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Environment in which child interpreters import factcancel from this
    checkout's src/ directory."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (a cli pass has children of its own) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} timed out after {PASS_TIMEOUT_S} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_pass(workload, seed, size, pass_id, input_id, traced, inproc, env) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "one_pass.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--pass-id", str(pass_id),
        "--input-id", str(input_id),
        "--traced", str(int(traced)),
        "--inproc", str(int(inproc)),
        "--t0", repr(time.monotonic()),
    ]
    proc = run_child(cmd, env)
    if proc.returncode != 0:
        raise BenchError(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_command(cmd: list[str], env: dict) -> float:
    t = time.perf_counter()
    proc = run_child(cmd, env)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise BenchError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def ref_loop_s() -> float:
    """A fixed pure-Python loop: its time tracks the processor's speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    backends = [m for m in ("gmpy2", "flint") if importlib.util.find_spec(m)]
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "bigint_backend": ", ".join(backends) or "python int (no gmpy2, no python-flint)",
    }


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(passes: list[dict]) -> dict:
    lat = [x for p in passes for x in p["lat_s"]]
    p90_s, _ = p90(lat)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": sum(p["attempted"] for p in passes) / sum(p["wall_s"] for p in passes),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * p90_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], plain: list[dict], probes: dict, ref: list[float], workload: str) -> dict:
    # median_low keeps the exact counts of identical passes as integers
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median_low(p["layers"][name] for p in traced)
    out["cli.interp_ms"] = 1000.0 * statistics.median(probes["interp"])
    out["cli.import_ms"] = 1000.0 * statistics.median(probes["import"])
    # in-process cli.main(argv) per invocation; only the cli workload calls it
    main_lat = [x for p in plain for x in p["lat_s"]] if workload == "cli" else [0.0]
    out["cli.main_ms"] = 1000.0 * statistics.median(main_lat)
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
        - 1.0
    )
    out["env.ref_loop_s"] = statistics.median(ref)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few small operations per pass, for the benchmark's own tests",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "factcancel" / "__init__.py").is_file():
        print(f"no factcancel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        info = environment()
        ref = [ref_loop_s() for _ in range(3)]
        # compile the bytecode caches once, untimed: users do not pay this per run
        time_command(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads, tracer"],
            env,
        )
        probes = {"interp": [], "import": []}
        if args.trace:
            for _ in range(CLI_PROBES):
                probes["interp"].append(time_command([sys.executable, "-c", "pass"], env))
                probes["import"].append(time_command([sys.executable, "-c", "import factcancel.cli"], env))
        min_samples = MIN_LATENCY_SAMPLES if args.size == "full" and not args.trace else 0
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            enough = elapsed >= args.seconds and (not args.trace or traced)
            if enough and sum(p["attempted"] for p in plain) >= min_samples:
                break
            if elapsed > PASS_START_LIMIT_S:
                break
            # Untimed runs draw new inputs for each pass, so a run averages
            # over several input sets.  In a traced run every pass reruns
            # input set 0: counts are exact and both kinds of pass do the
            # same work.
            trace_this = bool(args.trace) and len(traced) < len(plain)
            inproc = bool(args.trace) and args.workload == "cli"
            pass_id = len(plain) + len(traced)
            input_id = 0 if args.trace else pass_id
            result = run_pass(
                args.workload, args.seed, args.size, pass_id, input_id, trace_this, inproc, env
            )
            (traced if trace_this else plain).append(result)
        ref += [ref_loop_s() for _ in range(3)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {}
    for p in passes:
        digests.setdefault(p["input_id"], set()).add(p["digest"])
    if any(len(d) > 1 for d in digests.values()):
        failures.append("passes with the same inputs gave different digests")
        failed += 1
    known = sum(p["known_defects"] for p in passes)
    lat = [x for p in plain for x in p["lat_s"]]
    _, beyond = p90(lat)

    if args.trace:
        metrics = per_layer(traced, plain, probes, ref, args.workload)
    else:
        metrics = end_to_end(plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "env": info,
        "env.ref_loop_s": {"before": statistics.median(ref[:3]), "after": statistics.median(ref[3:])},
        "passes": {"plain": len(plain), "traced": len(traced)},
        "pass_wall_s": [p["wall_s"] for p in plain],
        "latency_samples": len(lat),
        "p90_samples_beyond": beyond,
        "failed_frac": failed / attempted,
        "known_defects": known,
        "failures": failures[:50],
        "digests": {i: sorted(d) for i, d in sorted(digests.items())},
        "metrics": metrics,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print("env " + json.dumps(info, sort_keys=True))
    print(
        f"env.ref_loop_s before {record['env.ref_loop_s']['before']:.4f} s, "
        f"after {record['env.ref_loop_s']['after']:.4f} s"
    )
    print(
        f"{args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} traced "
        f"ops={attempted} latency samples={len(lat)} ({beyond} beyond p90)"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if args.workload == "cli":
        print(f"  {'known README-contract defects':40s} {known} of {attempted} invocations")
    for f in failures[:20]:
        print(f"FAILED: {f}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
