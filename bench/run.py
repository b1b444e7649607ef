"""Benchmark of the dbtune pipeline: end-to-end wall time, planted-truth quality and,
in a separate traced run, per-layer timings.

Run from the repository root:

    python3 bench/run.py --workload map-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of output is one JSON object with the keys correct, attempted,
failed and metrics; a record of the run (environment, passes, quality per
corpus, spans) goes to .bench_out/. Exit code 1 means a check failed, 2 that
the dbtune sources are not beside this directory.
"""

import os

# one BLAS thread, fixed before numpy loads, so that the load is one thread
# whatever BLAS build and core count the machine has
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import layers

    # routine notice, once per online target; the benchmark's output only
    warnings.filterwarnings("ignore", message=r"workload \S+: ignoring \d+ rows",
                            category=UserWarning)
    workload = WORKLOADS[args.workload]
    env = harness.environment(args.seed, BLAS_THREADS)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        run = harness.Run(workload, args.seed, work)
        run.measure(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, p in enumerate(run.passes):
        for step, reasons in p.failed.items():
            for reason in reasons:
                print(f"FAILED pass {i} step {step}: {reason}", file=sys.stderr)
    n_passes = sum(not p.traced for p in run.passes)
    print(f"corpora {len(run.corpora)} (seeds {run.corpora[0].seed}.."
          f"{run.corpora[-1].seed}), untraced passes {n_passes}, "
          f"traced passes {len(run.passes) - n_passes}, "
          f"invocations {run.attempted}, failed {run.failed}")

    if args.trace:
        units, values = dict(layers.PER_LAYER), run.per_layer()
        print_per_layer(run, units, values)
    else:
        units, values = harness.END_TO_END, run.end_to_end()
        print_end_to_end(run, units, values)

    correct = run.failed == 0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "env": env, "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": values, **run.record()}
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def print_per_layer(run, units: dict[str, str], values: dict) -> None:
    n_traced = sum(p.traced for p in run.passes)
    notes = {"synth.generate_s": f"median of {len(run.setups)} set-ups",
             "synth.write_s": f"median of {len(run.setups)} set-ups",
             "trace.overhead": f"traced over untraced wall, median of {n_traced} pairs, - 1"}
    for name, unit in units.items():
        note = notes.get(name, f"median of {n_traced} traced passes")
        print(f"  {name:26s} {values[name]:14.6g} {unit:6s} {note}")


def print_end_to_end(run, units: dict[str, str], values: dict) -> None:
    walls = sorted(p.wall for p in run.passes)
    quality = [c.quality for c in run.corpora if c.quality is not None]
    wall_note = f"median of {len(walls)} passes, min {walls[0]:.4g}, max {walls[-1]:.4g}"
    if len(walls) >= 20:
        p = _tail(len(walls))
        wall_note += f", p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4g}"
    else:
        wall_note += ", no tail percentile (needs 20 passes)"
    notes = {"wall_s": wall_note, "setup_s": f"median of {len(run.setups)} set-ups",
             "peak_rss_mb": "ru_maxrss of this process"}
    for name, unit in units.items():
        note = notes.get(name, f"over {len(quality)} corpora")
        print(f"  {name:20s} {_fmt(values[name]):>14s} {unit:6s} {note}")
    print(f"  {'fail_rate':20s} {run.failed / run.attempted:14.6g} ratio  "
          f"{run.failed}/{run.attempted} invocations")
    if quality:
        for group in ("b", "c"):
            name = f"mape_{group}_pct"
            value = statistics.fmean(getattr(q, name) for q in quality)
            print(f"  {name:20s} {value:14.6g} %      online-{group.upper()} only, "
                  f"over {len(quality)} corpora")
        print(f"  {'k_abs_error':20s} {max(q.k_error for q in quality):14d} count  "
              f"max over {len(quality)} corpora")


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def _tail(n: int) -> int:
    """Highest whole percentile with at least ten samples above it."""
    return int(100 * (n - 10) / n)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dbtune" / "__init__.py").is_file():
        print(f"error: dbtune sources not found under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
