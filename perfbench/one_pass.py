"""One timed pass of a workload, in a fresh interpreter.

run.py starts this script once per pass, so no pass reuses state (caches,
compiled tables) that an earlier pass filled.  It prints one JSON line with
the pass's measurements.  Set-up is timed from ``--t0``, the CLOCK_MONOTONIC
reading the parent took just before starting this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--pass-id", type=int, required=True)
    ap.add_argument("--input-id", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inproc", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = ROOT / ".bench_out"
    inputs = out_dir / f"cli-inputs-{args.workload}-{args.seed}-{args.pass_id}"
    ops = workloads.make_ops(args.workload, args.seed, args.input_id, args.size, inputs)

    subprocess_ops = args.workload == "cli" and not args.inproc
    who = resource.RUSAGE_CHILDREN if subprocess_ops else resource.RUSAGE_SELF
    setup_s = time.monotonic() - args.t0
    ru0 = resource.getrusage(who)
    lat = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        workloads.run_op(op, inproc=bool(args.inproc))
        lat.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    ru1 = resource.getrusage(who)
    if tracer is not None:
        tracer.active = False

    failures, failed, known = [], 0, 0
    for op in ops:
        errs, defect = workloads.check_op(op)
        failures += errs
        failed += bool(errs)
        known += defect
    dig = workloads.digest(ops)
    ref = workloads.reference_digest(args.workload, args.seed, args.input_id, args.size)
    if ref is not None and dig != ref:
        failures.append(f"digest {dig[:12]} differs from the recorded reference {ref[:12]}")
        failed = max(failed, 1)
    shutil.rmtree(inputs, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "lat_s": lat,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "known_defects": known,
        "input_id": args.input_id,
        "digest": dig,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_id}.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
