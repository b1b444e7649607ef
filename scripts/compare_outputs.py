#!/usr/bin/env python3
"""Check this working tree's dbtune outputs against a parent revision's.

Both trees run one fixed matrix of commands, and every output byte is
compared.

Usage: python scripts/compare_outputs.py --parent REV [--expect GLOB ...]

The parent is checked out with `git worktree add` into a temporary
directory, removed afterwards; each tree runs with its own `src`. The matrix:
`pipeline` with gpr, rf and nn on the corpora of `synth --seed 7` and
`--seed 8`; on the seed-7 corpus, `prune`, then `train` and `predict` (both
online groups) with gpr and with nn (`--epochs 20`), so that a gpr and an nn
model.json are written and read; and one corpus of each benchmark workload
(seed `corpus_seed(181, 0)`) through the commands of its `Workload.steps`, and
the prune-wide corpus through `pipeline --method kmeans --k-max 30`, the k-means
form of its sweep. Every file the commands write is compared, and so is each
command's stdout, stderr and exit code, as the pseudo-paths `<step>.stdout`,
`.stderr` and `.exit`. Only the temporary run directories are masked.

Each differing path prints with its first differing line. Exit 0 when every
difference matches an --expect glob (fnmatch, on the path relative to the
run directory, such as `seed7/nn/predictions_nn_*`), 1 when one does not,
2 when REV cannot be checked out.
"""

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, corpus_seed  # noqa: E402

SYNTH_SEEDS = (7, 8)
PREDICTORS = ("gpr", "rf", "nn")
# the stage commands' predictors on the seed-7 corpus, with their flags; the
# benchmark's serve-rf workload runs them with rf
STAGE_PREDICTORS = {"gpr": [], "nn": ["--epochs", "20"]}
BENCH_SEED = 181
# characters of context shown either side of a line's first difference
CONTEXT = 30


def matrix() -> list[tuple[str, list[str]]]:
    """(case/step, argv) in run order, paths relative to the run directory.
    A command's `--out` is the directory named by its case/step."""
    runs = []
    for seed in SYNTH_SEEDS:
        case = f"seed{seed}"
        runs.append((f"{case}/corpus", ["synth", "--out", f"{case}/corpus", "--seed", str(seed)]))
        for p in PREDICTORS:
            runs.append((f"{case}/{p}", ["pipeline", "--manifest", f"{case}/corpus/manifest.json",
                                         "--out", f"{case}/{p}", "--predictor", p]))
    m, pruned = "seed7/corpus/manifest.json", "seed7/prune/pruned_metrics.txt"
    runs.append(("seed7/prune", ["prune", "--manifest", m, "--out", "seed7/prune"]))
    for p, flags in STAGE_PREDICTORS.items():
        runs.append((f"seed7/train_{p}", ["train", "--manifest", m, "--out", f"seed7/train_{p}",
                                          "--pruned", pruned, "--predictor", p, *flags]))
        runs += [(f"seed7/predict_{p}_{g}", ["predict", "--manifest", m, "--out",
                                             f"seed7/predict_{p}_{g}", "--model-dir",
                                             f"seed7/train_{p}", "--group", g])
                 for g in ("online_b", "online_c")]
    for name, workload in WORKLOADS.items():
        runs.append((f"{name}/corpus", ["synth", "--spec", f"{name}/spec.json",
                                        "--out", f"{name}/corpus"]))
        runs += [(f"{name}/{step}", argv) for step, argv in
                 workload.steps(Path(name, "corpus", "manifest.json"), Path(name))]
    runs.append(("prune-wide/kmeans", ["pipeline", "--manifest", "prune-wide/corpus/manifest.json",
                                       "--out", "prune-wide/kmeans", "--method", "kmeans",
                                       "--k-max", "30"]))
    return runs


def run_tree(tree: Path, run_dir: Path) -> dict[str, bytes]:
    """Run the matrix with tree/src in run_dir; every output and pseudo-path
    relative to run_dir, with run_dir's path masked."""
    for name, workload in WORKLOADS.items():
        (run_dir / name).mkdir(parents=True)
        spec = {**workload.spec, "seed": corpus_seed(BENCH_SEED, 0)}
        (run_dir / name / "spec.json").write_text(json.dumps(spec))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    got = {}
    for step, argv in matrix():
        done = subprocess.run([sys.executable, "-m", "dbtune.cli", *argv], cwd=run_dir,
                              env=env, capture_output=True)
        got[f"{step}.stdout"], got[f"{step}.stderr"] = done.stdout, done.stderr
        got[f"{step}.exit"] = b"%d\n" % done.returncode
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            got[path.relative_to(run_dir).as_posix()] = path.read_bytes()
    mask = str(run_dir).encode()
    return {k: v.replace(mask, b"<run>") for k, v in got.items()}


def first_difference(a: bytes, b: bytes) -> str:
    """Line number and context of the first line where a and b differ."""
    lines_a = a.decode(errors="replace").splitlines()
    lines_b = b.decode(errors="replace").splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        la = lines_a[i] if i < len(lines_a) else "<no line>"
        lb = lines_b[i] if i < len(lines_b) else "<no line>"
        if la != lb:
            col = next((j for j, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
            lo = max(0, col - CONTEXT)
            return (f"line {i + 1}, column {col + 1}: parent {la[lo:col + CONTEXT]!r}, "
                    f"change {lb[lo:col + CONTEXT]!r}")
    return "line endings differ"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="a path whose difference is expected (repeatable)")
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    parent_tree = tmp / "parent"
    try:
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                                str(parent_tree), args.parent], capture_output=True, text=True)
        if added.returncode:
            print(f"error: cannot check out {args.parent}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        parent = run_tree(parent_tree, tmp / "run_parent")
        change = run_tree(ROOT, tmp / "run_change")
    finally:
        if parent_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent_tree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    unexpected = 0
    paths = sorted(parent.keys() | change.keys())
    for path in paths:
        if parent.get(path) == change.get(path):
            continue
        if path not in parent or path not in change:
            detail = "only in the " + ("change" if path in change else "parent")
        else:
            detail = first_difference(parent[path], change[path])
        expected = any(fnmatch.fnmatch(path, glob) for glob in args.expect)
        unexpected += not expected
        print(f"{'expected' if expected else 'DIFFERS'} {path}: {detail}")
    print(f"{len(paths)} paths compared, {unexpected} unexpected difference(s) "
          f"against {args.parent}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
