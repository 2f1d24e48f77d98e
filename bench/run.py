"""Benchmark of segre-pg72: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 10     # every workload, one table

Run from a checkout of the repository; the program is imported or started
from ``src/`` of that checkout.  With ``--trace 0`` the run is timed and the
last line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` every operation runs twice, untraced and then traced, and
the JSON carries the per-layer metrics of the traced runs plus the overhead
of tracing.  Each run also writes its full record (environment, input mix,
per-kind readings) to ``.bench_out/``; a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER, Tracer
from workloads import BENCH, OUT, ROOT, SRC, WORKLOADS, cli_env, import_package
from oracle import REFERENCE_DIR

SETUP_REPEATS = 11

_SETUP_CHILD = f"""\
import sys, time
sys.path.insert(0, {str(BENCH)!r})
import workloads
start = time.perf_counter()
pkg = workloads.import_package()
workloads.build_cached_constructions(pkg)
print(time.perf_counter() - start, len(pkg.segre_group()))
"""


def setup_sample() -> float:
    """Seconds for a fresh process to import the package and build its caches."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120, check=True,
    )
    seconds, order = proc.stdout.split()
    if order != "1296":
        raise RuntimeError(f"set-up built a group of order {order}")
    return float(seconds)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop; recorded, never used to adjust."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "segre_pg72").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "sources_sha256": digest.hexdigest(),
        "calibration_s_start": calibrate(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_ops(workload, seed: int, seconds: float, tracer=None):
    """Closed loop, one client: whole rounds until ``seconds`` have passed.

    An untraced run also takes its set-up samples, spread evenly over the
    run between operations, so that they see the same machine as the
    operations do rather than one moment of it.
    """
    rng = random.Random(seed)
    records, traced, setup = [], [], []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        for op in workload.round(rng):
            due = start + len(setup) * seconds / SETUP_REPEATS
            if tracer is None and len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
                setup.append(setup_sample())
            records.append(workload.execute(op))
            if tracer is not None:
                traced.append(workload.execute(op, tracer))
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    return records, traced, setup


def kind_readings(workload, records) -> dict:
    out = {}
    for metric, (kind, stat) in workload.named.items():
        times = [r.seconds for r in records if r.kind == kind]
        if stat == "median_s":
            out[metric] = {"value": statistics.median(times), "unit": "s", "samples": len(times)}
        else:
            done = sum(1 for r in records if r.kind == kind and r.error is None)
            out[metric] = {"value": done / sum(times), "unit": "1/s", "samples": len(times)}
    return out


def end_to_end(records, setup_s: float) -> dict:
    done = sum(1 for r in records if r.error is None)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": done / sum(r.seconds for r in records), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def run_one(args) -> int:
    if not (SRC / "segre_pg72" / "__init__.py").is_file() or not REFERENCE_DIR.is_dir():
        print(f"error: no program sources under {SRC} or no reference outputs", file=sys.stderr)
        return 2
    env = environment()
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = Tracer(import_package() if workload.in_process else None)
    start = time.perf_counter()
    workload.prepare(tracer)
    prepare_s = time.perf_counter() - start
    records, traced, setup_samples = run_ops(workload, args.seed, args.seconds, tracer)
    env["calibration_s_end"] = calibrate()

    everything = records + traced
    errors = [r.error for r in everything if r.error is not None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "inputs": dict(sorted(workload.inputs.items())),
        "attempted": len(everything), "failed": len(errors),
        "failed_ratio": len(errors) / len(everything),
        "errors": errors[:20],
        "setup_samples_s": setup_samples,
    }
    if tracer is None:
        metrics = end_to_end(records, statistics.median(setup_samples))
        record["end_to_end"] = metrics
        record["per_kind"] = kind_readings(workload, records)
    else:
        # batch workloads build their caches traced, so their spans are in
        # the self-time total and their wall time is in wall_s
        ops_wall = sum(r.seconds for r in traced)
        values = tracer.layer_metrics(
            ops_wall - sum(r.seconds for r in records),
            ops_wall + (prepare_s if workload.in_process else 0.0),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        record["per_layer"] = metrics
        if not workload.in_process:
            record["traced_share_covered_by_spans"] = {
                kind: sum(r.covered_s for r in traced if r.kind == kind)
                / sum(r.seconds for r in traced if r.kind == kind)
                for kind in sorted({r.kind for r in traced})
            }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    for name, m in {**metrics, **record.get("per_kind", {})}.items():
        print(f"{args.workload:12} {name:34} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for err in errors[:5]:
        print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": len(everything), "failed": len(errors), "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the readings."""
    rows = []
    failed = 0
    for name in WORKLOADS:
        status = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.DEVNULL, cwd=ROOT,
        ).returncode
        if status != 0:
            return status
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        failed += record["failed"]
        readings = {**record.get("end_to_end", record.get("per_layer")), **record.get("per_kind", {}),
                    "failed_ratio": {"value": record["failed_ratio"], "unit": "ratio"}}
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in readings.items()]
    for row in rows:
        print("{:12} {:34} {:14.6g} {}".format(*row))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
