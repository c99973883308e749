"""guti benchmark: train, generate and corpus work in one process.

    python3 benchmarks/run.py --workload {train,generate,corpus} --seed N \
        --seconds S --trace {0,1}

Every run executes all three parts, one closed-loop client each, with
their operations interleaved; the named workload's part gets the most
cycles (see BENCHMARK.json for why each exists).  Work is done in cycles of
fixed composition, and the number of cycles scales with ``--seconds``
(see NAMED_CYCLES), so every run of one workload does the same work
whatever its seed.  See benchmarks/README.md for the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs only the
named part, first untraced and then with spans around guti's public
functions, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result; the exit code is nonzero if
any output check failed.
"""

import time

import probe  # standard library only until a numeric probe runs

probe.objects()            # warm the probe's own code paths
SETUP_FACTOR = probe.speed_factor(probe.objects)
T0 = time.perf_counter()   # set-up time counts from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one core, as guti promises; must happen before numpy loads OpenBLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "generate", "corpus")
# Cycles per part at REFERENCE_SECONDS, for the named workload's part and
# for the other two.  On a 2-core Xeon sandbox a train cycle takes about
# 1.1 s, a generate cycle (every catalog form once) 16 s and a corpus cycle
# 3.7 s, probes and output checks included.
REFERENCE_SECONDS = 30
NAMED_CYCLES = {"train": 12, "generate": 2, "corpus": 4}
OTHER_CYCLES = {"train": 6, "generate": 1, "corpus": 1}
SETUP_REPEATS = 3          # the run's own set-up plus fresh processes


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, default=None, metavar="I",
                    help=argparse.SUPPRESS)   # one fresh-process set-up, for setup_s
    return ap.parse_args(argv)


def plan(workload: str, seconds: float) -> dict[str, int]:
    scale = seconds / REFERENCE_SECONDS
    return {part: max(1, round(scale * (NAMED_CYCLES if part == workload else OTHER_CYCLES)[part]))
            for part in WORKLOADS}


def interleave(unit_lists: list[list]) -> list:
    """Spread each part's units evenly over the run, keeping their order.

    The sandbox's CPU speed changes by up to 1.7x within seconds as
    co-tenants come and go, so a part run in one block would be measured
    in whatever state the machine was in at the time.
    """
    keyed = [((i + 0.5) / len(units), p, i, unit)
             for p, units in enumerate(unit_lists) for i, unit in enumerate(units)]
    return [unit for *_, unit in sorted(keyed, key=lambda k: k[:3])]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass   # not Linux: the architecture name has to do
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "guti").glob("*.py")))


def fresh_setup_seconds(args, i: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(i)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "guti" / "__init__.py").is_file():
        print("benchmark: src/guti not found; run from a guti checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import parts
    from spans import Tracer

    missing = [rel for rel in parts.FIXTURES if not (ROOT / rel).is_file()]
    if missing:
        print(f"benchmark: {missing[0]} not found; run from a guti checkout", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work" / args.workload
    work = base / f"setup-{args.setup_only}" if args.setup_only is not None else base
    if args.setup_only is None and base.exists():
        shutil.rmtree(base)

    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
        tracer.active = True
    ctx = parts.setup(ROOT, work, args.seed, tracer)
    train = parts.TrainPart(ctx)
    generate = parts.GeneratePart(ctx)
    corpus_part = parts.CorpusPart(ctx)
    setup_s = (time.perf_counter() - T0) / SETUP_FACTOR
    tracer.active = False
    if args.setup_only is not None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the metrics this run prints, name -> unit, as BENCHMARK.json declares them
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cycles = plan(args.workload, args.seconds)
    parts_by_name = {"train": train, "generate": generate, "corpus": corpus_part}
    named = parts_by_name[args.workload]

    print("env " + json.dumps(environment(), ensure_ascii=False))
    print(f"src/guti lines: {src_line_count()} (informational, not gated)")
    metrics: dict = {}
    if args.trace:
        n_setup = len(tracer.spans)
        tracer.counts.clear()      # the per-layer counts cover the traced pass only
        n = math.ceil(cycles[args.workload] / 2)
        print(f"workload {args.workload}: {n} cycles untraced, then {n} traced")
        before = named.scaled_s
        for unit in named.units(n):
            unit()
        plain_s = named.scaled_s - before
        tracer.active = True
        for unit in named.units(n):
            unit()
        tracer.active = False
        if named is train:
            train.finish()
        traced_s = named.scaled_s - before - plain_s
        overhead = 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0
        metrics = layers.per_layer(list(declared), tracer.spans[:n_setup],
                                   tracer.spans[n_setup:], tracer.counts, overhead)
        print(f"tracing overhead: {overhead:+.1f}% "
              f"({traced_s:.2f} s traced vs {plain_s:.2f} s untraced on the same work)")
        tracer.write(base / "spans.jsonl")
    else:
        print("workload {}: cycles {}".format(args.workload, json.dumps(cycles)))
        for unit in interleave([parts_by_name[name].units(cycles[name]) for name in WORKLOADS]):
            unit()
        train.finish()
        setups = [setup_s] + [fresh_setup_seconds(args, i) for i in range(1, SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(setups), len(setups))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        for part in parts_by_name.values():
            if part.failed == 0:
                metrics.update(part.metrics())

    for name, part in parts_by_name.items():
        factor = statistics.median(part.factors) if part.factors else float("nan")
        print(f"{name}: attempted {part.attempted} failed {part.failed}; timed "
              f"{part.busy_s:.1f} s raw, {part.scaled_s:.1f} s scaled "
              f"(median machine speed factor {factor:.2f})")
        for failure in part.failures[:5]:
            print(f"  FAILED {failure}", file=sys.stderr)
    print(f"{'metric':40} {'value':>14} {'unit':6} {'samples':>8}")
    for name, unit in declared.items():
        if name in metrics:
            value, samples, *note = metrics[name]
            print(f"{name:40} {value:14.4f} {unit:6} {samples:8d} {' '.join(note)}")
        else:
            print(f"{name:40} {'missing':>14}")

    attempted = sum(p.attempted for p in parts_by_name.values())
    failed = sum(p.failed for p in parts_by_name.values())
    correct = failed == 0 and all(name in metrics for name in declared)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
