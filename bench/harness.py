"""One benchmark run: set up corpora, time passes of a workload's commands, check them.

The load is a closed loop with one client: one process and one thread, and
each `dbtune` command starts when the previous one has returned. Commands run
in-process through `dbtune.cli.main`, so the timings hold no interpreter
start-up. A run derives `workload.corpora` corpus seeds from its seed, runs
every corpus at least once and the first one twice, then keeps cycling
through them until its time is spent. Each pass sets its corpus up afresh
(generate + write, timed outside the pass's wall time), so that the set-up
samples spread over the run as the passes do.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from dbtune import cli, synth

import checks
import layers
from tracer import Tracer
from workloads import N_MAP, Workload, corpus_seed


# each pass sets its corpus up once, and again until this much time has gone
# into it: a set-up of a few milliseconds then gives many samples per pass, a
# costly one a single sample
SETUP_MIN_S = 0.2

# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mape_pct": "%",
              "map_hit_rate": "ratio", "prune_group_recall": "ratio"}


@dataclass
class Corpus:
    seed: int
    directory: Path  # written before each pass on it, removed after
    planted: checks.Planted | None = None  # from its first set-up
    reference: dict[str, str] | None = None  # output digests of the first pass on it
    quality: checks.Quality | None = None


@dataclass
class Pass:
    corpus: int
    traced: bool
    wall: float
    steps: int
    failed: dict[str, list[str]] = field(default_factory=dict)  # step -> reasons
    layers: dict[str, float] | None = None


def invoke(argv: list[str]) -> str | None:
    """Run one CLI command in-process; returns why it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:  # a traceback escaping the CLI is a failed invocation
        return traceback.format_exc()
    return None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.corpora = [Corpus(corpus_seed(seed, i), work / f"corpus{i}")
                        for i in range(workload.corpora)]
        self.tracer = Tracer(layers.TARGETS)
        self.passes: list[Pass] = []
        self.setups: list[tuple[float, float]] = []  # (generate_s, write_s) of each set-up
        self.costs: list[float] = []  # seconds per pass, checks included

    def _set_up(self, corpus: Corpus) -> Path:
        """Generate and write a corpus into an empty directory, timing both, until
        SETUP_MIN_S has gone into it; returns the manifest."""
        spec = synth.SynthSpec(seed=corpus.seed, **self.workload.spec)
        spent = 0.0
        while spent < SETUP_MIN_S:
            shutil.rmtree(corpus.directory, ignore_errors=True)
            t0 = time.perf_counter()
            generated, truth = synth.generate_corpus(spec)
            t1 = time.perf_counter()
            manifest = synth.write_corpus(generated, corpus.directory)
            t2 = time.perf_counter()
            self.setups.append((t1 - t0, t2 - t1))
            spent += t2 - t0
        if corpus.planted is None:
            held_out = N_MAP if self.workload.kind == "pipeline" else None
            corpus.planted = checks.planted_truth(generated, truth, held_out)
        return manifest

    def run_pass(self, index: int, traced: bool) -> Pass:
        begin = time.perf_counter()
        pass_id = len(self.passes)
        corpus = self.corpora[index]
        out = self.work / f"pass{pass_id}"
        manifest = self._set_up(corpus)
        steps = self.workload.steps(manifest, out)
        gc.collect()
        failed: dict[str, list[str]] = {}
        with self.tracer.tracing(pass_id) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for name, argv in steps:
                why = invoke(argv)
                if why is not None:
                    failed[name] = [why]
            wall = time.perf_counter() - t0
        result = Pass(index, traced, wall, len(steps), failed)
        if traced:
            result.layers = layers.pass_layers(*self.tracer.pass_spans(pass_id), wall)

        quality, bad = checks.check_outputs(self.workload, corpus.planted, out)
        digest = checks.digests(out)
        if corpus.reference is None:
            corpus.reference, corpus.quality = digest, quality
        else:
            for path in checks.differing(corpus.reference, digest):
                bad.setdefault(path.split("/")[0], []).append(
                    f"{path}: bytes differ from the first pass on corpus {corpus.seed}")
        for step, reasons in bad.items():
            failed.setdefault(step, []).extend(reasons)
        shutil.rmtree(out)
        shutil.rmtree(corpus.directory)
        self.passes.append(result)
        self.costs.append(time.perf_counter() - begin)
        return result

    def measure(self, seconds: float, trace: bool) -> None:
        """Untraced: every corpus once and the first twice, then more passes
        while the budget lasts. Traced: pairs of an untraced and a traced pass
        on one corpus, in alternating order, at least one pair."""
        start = time.perf_counter()
        n_corpora = len(self.corpora)
        per_round = 2 if trace else 1
        minimum = 2 if trace else n_corpora + 1
        while True:
            n = len(self.passes)
            spent = time.perf_counter() - start
            if n >= minimum and spent + per_round * statistics.median(self.costs) > seconds:
                return
            if not trace:
                self.run_pass(n % n_corpora, traced=False)
            else:
                pair = n // 2
                first_traced = pair % 2 == 1
                self.run_pass(pair % n_corpora, traced=first_traced)
                self.run_pass(pair % n_corpora, traced=not first_traced)

    # -- results ---------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(p.steps for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.passes)

    def end_to_end(self) -> dict[str, float | None]:
        quality = [c.quality for c in self.corpora if c.quality is not None]

        def mean(values):
            values = list(values)
            return statistics.fmean(values) if values else None

        targets = sum(q.targets for q in quality)
        return {
            "wall_s": statistics.median(p.wall for p in self.passes),
            "setup_s": statistics.median(g + w for g, w in self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # B and C together: on one group of 8 or 16 targets MAPE varies too
            # much between corpora for a bound; both groups have equal counts
            "mape_pct": mean((q.mape_b_pct + q.mape_c_pct) / 2 for q in quality),
            "map_hit_rate": sum(q.hits for q in quality) / targets if targets else None,
            "prune_group_recall": mean(q.recall for q in quality),
        }

    def per_layer(self) -> dict[str, float]:
        out = layers.median_layers([p.layers for p in self.passes if p.traced])
        out["synth.generate_s"] = statistics.median(g for g, _ in self.setups)
        out["synth.write_s"] = statistics.median(w for _, w in self.setups)
        ratios = []
        for a, b in zip(self.passes[::2], self.passes[1::2]):  # one pair per corpus visit
            traced, plain = (a, b) if a.traced else (b, a)
            ratios.append(traced.wall / plain.wall)
        out["trace.overhead"] = statistics.median(ratios) - 1
        return out

    def record(self) -> dict:
        return {
            "corpora": [{"seed": c.seed, "quality": c.quality and asdict(c.quality)}
                        for c in self.corpora],
            "passes": [asdict(p) for p in self.passes],
            "setups": self.setups,
            "spans": self.tracer.dump(),
        }


def environment(seed: int, blas_threads: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
