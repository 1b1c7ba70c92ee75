"""Benchmark of `evidential pipeline` on synthetic workloads.

Runs one workload in this process and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced run with --trace 1. `--workload all` runs every workload,
each in a child process of its own, and prints one table.

    python3 bench/run.py --workload consonant-dense --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --trace 1

See bench/README.md for the workloads, the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "evidential" / "__init__.py").is_file():
    sys.exit(f"bench: the program's source is missing ({SRC / 'evidential'} not found)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import evidential  # noqa: E402
from evidential import cli, combine, evaluate, formats  # noqa: E402
from evidential.errors import EvidenceError, NoEvidenceError, TotalConflictError  # noqa: E402
from evidential.evaluate import MatchCategory  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

if not Path(evidential.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported evidential from {evidential.__file__}, not from {SRC}")

SETUP_MIN_S = 0.5
RELOAD_MIN_S = 1.0
CROSSCHECK_SAMPLE = 100
CROSSCHECK_TOL = 1e-9
TRACED_RUNS = 2
UNDIAGNOSED = (NoEvidenceError, TotalConflictError)

# Per-layer metrics: self time of these spans, call counts of these, and the
# counters the tracer's hooks keep.
SELF_TIMES = [
    "lattice.superset_sum", "lattice.superset_diff", "lattice.subset_sum",
    "combine.combine_all", "combine.dempster_combine", "combine.commonality",
    "belief.interval", "belief.mass_function_init", "belief.to_dict", "belief.from_dict",
    "formats.parse_case_table", "formats.write_frequency_table", "formats.write_bpa_set",
    "formats.read_bpa_set", "formats.write_report", "formats.dump_json", "formats.load_json",
    "extract.build_frequency_table", "extract.extract_bpas",
    "evaluate.evaluate_set", "evaluate.diagnose_case", "evaluate.observed_set",
    "expert.part_modify", "correlate.pearson_matrix", "correlate.prune_components",
    "pipeline.run_pipeline", "cli.main", "synth.generate_cases",
]
CALL_COUNTS = [
    "lattice.superset_sum", "lattice.superset_diff", "lattice.subset_sum",
    "combine.combine_all", "combine.dempster_combine", "combine.commonality",
    "belief.interval", "belief.mass_function_init", "evaluate.diagnose_case",
]
HOOK_COUNTS = {
    "lattice.ops": "count",
    "lattice.bytes_computed": "bytes",
    "combine.pair_products": "count",
    "combine.commonality_operands": "count",
    "extract.entries": "count",
    "extract.focal_elements": "count",
    "expert.replaced_entries": "count",
    "correlate.removed_params": "count",
    "formats.bpa_json_bytes": "bytes",
    "formats.report_json_bytes": "bytes",
}


class Run:
    """What one run measured and which cases failed a correctness check."""

    def __init__(self) -> None:
        self.pipeline_s: list[float] = []
        self.first_diagnosis_s: list[float] = []
        self.latencies: list[float] = []
        self.artifact_bytes: list[int] = []
        self.attempted = 0
        self.undiagnosed = 0
        self.failed = 0
        self.notes: list[str] = []
        self.crosscheck_disagreements = 0

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


class Iteration:
    """One pipeline call, then the stand-alone diagnose loop on its BPA file."""

    def __init__(self, workload, paths: dict, out_dir: Path, run: Run, reload_s: float) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        argv = ["pipeline", "--train", str(paths["train"]), "--test", str(paths["test"]),
                "--intervals", str(paths["intervals"]), "--method", workload.method,
                *workload.pipeline_flags, "--out-dir", str(out_dir)]
        if "expert" in paths:
            argv += ["--expert", str(paths["expert"])]
        reports = []
        inner = cli.run_pipeline

        def capture(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        cli.run_pipeline = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                run.pipeline_s.append(time.perf_counter() - start)
        finally:
            cli.run_pipeline = inner
        if code != 0 or len(reports) != 1:
            raise RuntimeError(f"evidential pipeline exited with {code}")
        self.report = reports[0]
        run.artifact_bytes.append(sum(f.stat().st_size for f in out_dir.iterdir()))

        # What `evidential diagnose` does: reload the BPA file the evaluation
        # used, then diagnose every test case. The reload up to the first
        # diagnosed case repeats until it has taken reload_s in total.
        bpa_file = out_dir / ("bpa_modified.json" if "expert" in paths else "bpa.json")
        drop_file = out_dir / "dropped_params.txt"
        spent = 0.0
        while not spent or spent < reload_s:
            start = time.perf_counter()
            self.bpa = formats.read_bpa_set(bpa_file)
            self.cases = formats.parse_cases(paths["test"])
            self.intervals = formats.parse_intervals(paths["intervals"])
            self.drop = formats.read_drop_params(drop_file) if drop_file.exists() else frozenset()
            for case in self.cases:
                try:
                    evaluate.diagnose_case(case, self.bpa, self.intervals, self.drop)
                    break
                except UNDIAGNOSED:
                    pass
            run.first_diagnosis_s.append(time.perf_counter() - start)
            spent += run.first_diagnosis_s[-1]
        self.results = {}
        for case in self.cases:
            start = time.perf_counter()
            try:
                result = evaluate.diagnose_case(case, self.bpa, self.intervals, self.drop)
            except UNDIAGNOSED as exc:
                result = exc
            run.latencies.append(time.perf_counter() - start)
            self.results[case.case_id] = result
        run.attempted += len(self.cases)
        run.undiagnosed += sum(isinstance(r, Exception) for r in self.results.values())
        self.report_file = out_dir / "report.json"

    def check(self, run: Run) -> None:
        """report.json must read back as the returned report, and every
        stand-alone diagnosis must match the report's trace for its case."""
        report = self.report
        back = formats.read_report(self.report_file)
        bad = set()
        if (back.counts, back.total_cases, back.errors) != (
            report.counts, report.total_cases, report.errors
        ) or len(back.traces) != len(report.traces):
            bad.add("<report header>")
        back_traces = {t.case_id: t for t in back.traces}
        bad.update(t.case_id for t in report.traces if back_traces.get(t.case_id) != t)
        traces = {t.case_id: t for t in report.traces}
        error_ids = {case_id for case_id, _ in report.errors}
        for case_id, result in self.results.items():
            if isinstance(result, Exception):
                ok = case_id in error_ids
            else:
                trace = traces.get(case_id)
                ok = trace is not None and (trace.observed_labels, trace.intervals) == (
                    result.observed_labels, result.intervals
                )
            if not ok:
                bad.add(case_id)
        if bad:
            run.fail(len(bad), f"report/diagnose mismatch on {sorted(bad)[:5]}")

    def crosscheck(self, path: str, run: Run) -> float:
        """Force the other combination path on a fixed sample of cases.

        Singleton intervals must agree within CROSSCHECK_TOL. A case where
        exactly one path raises total conflict is counted, not failed; the
        other path may then fail in its own way, as the sparse fold does when
        a step keeps about 1e-8 of the mass and its renormalised masses miss
        a sum of 1 by more than 1e-9 (NotNormalizedError). Any other error on
        one path only fails the case. Returns the largest interval difference
        seen.
        """
        step = max(1, len(self.cases) // CROSSCHECK_SAMPLE)
        sample = self.cases[::step][:CROSSCHECK_SAMPLE]
        original = evaluate.combine_all
        evaluate.combine_all = functools.partial(combine.combine_all, path=path)
        worst = 0.0
        try:
            for case in sample:
                try:
                    forced = evaluate.diagnose_case(case, self.bpa, self.intervals, self.drop)
                except EvidenceError as exc:
                    forced = exc
                base = self.results[case.case_id]
                if isinstance(base, Exception) or isinstance(forced, Exception):
                    if type(base) is not type(forced):
                        base_name, forced_name = (
                            type(r).__name__ if isinstance(r, Exception) else "diagnosed"
                            for r in (base, forced)
                        )
                        outcome = f"{base_name}, forced {path}: {forced_name}"
                        if TotalConflictError in (type(base), type(forced)):
                            run.crosscheck_disagreements += 1
                            run.notes.append(f"crosscheck conflict disagreement on "
                                             f"{case.case_id}: {outcome}")
                        else:
                            run.fail(1, f"crosscheck: {case.case_id} {outcome}")
                    continue
                diff = max(
                    max(abs(a.lower - b.lower), abs(a.upper - b.upper))
                    for a, b in zip(base.intervals, forced.intervals)
                )
                worst = max(worst, diff)
                if diff > CROSSCHECK_TOL:
                    run.fail(1, f"crosscheck: {case.case_id} intervals differ by {diff:.3g}")
        finally:
            evaluate.combine_all = original
        return worst


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "evidential").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "evidential": evidential.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def _setup(workload, seed: int, data_dir: Path) -> tuple[dict, float]:
    shutil.rmtree(data_dir, ignore_errors=True)
    start = time.perf_counter()
    paths = write_inputs(workload, seed, data_dir)
    return paths, time.perf_counter() - start


def end_to_end(workload, seed: int, seconds: float, work: Path, run: Run) -> dict:
    """Iterations until `seconds` have passed. Each one sets up the inputs
    until SETUP_MIN_S is spent, so every metric samples the whole run."""
    setups = []
    deadline = time.perf_counter() + seconds
    report = None
    while report is None or time.perf_counter() < deadline:
        spent = 0.0
        while not spent or spent < SETUP_MIN_S:
            paths, elapsed = _setup(workload, seed, work / "data")
            setups.append(elapsed)
            spent += elapsed
        iteration = Iteration(workload, paths, work / "out", run, RELOAD_MIN_S)
        iteration.check(run)
        if report is None and workload.crosscheck_path:
            run.notes.append(f"crosscheck max |diff| "
                             f"{iteration.crosscheck(workload.crosscheck_path, run):.3g}")
        report = iteration.report
        del iteration
    n_test = report.total_cases
    if len(set(run.artifact_bytes)) != 1:
        run.fail(1, f"artifact sizes differ between iterations: {run.artifact_bytes}")
    latencies = run.latencies
    run.notes.append(f"{len(run.pipeline_s)} iteration(s), pipeline_s each: "
                     + ", ".join(f"{t:.4f}" for t in run.pipeline_s))
    run.notes.append(f"medians over {len(setups)} set-ups, {len(run.first_diagnosis_s)} "
                     f"reloads, {len(latencies)} diagnose latencies")
    run.notes.append(f"undiagnosed {run.undiagnosed}/{run.attempted} "
                     f"(share {run.undiagnosed / run.attempted:.4f}); "
                     f"crosscheck conflict disagreements {run.crosscheck_disagreements}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_s": (statistics.median(run.pipeline_s), "s"),
        "diagnose_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "diagnose_p95_ms": (statistics.quantiles(latencies, n=20)[-1] * 1e3, "ms"),
        "first_diagnosis_s": (statistics.median(run.first_diagnosis_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_mb": (run.artifact_bytes[-1] / 1e6, "MB"),
        "pm_share": (report.counts[MatchCategory.PM] / n_test, "ratio"),
        "diagnosed_share": (1.0 - (run.undiagnosed + run.failed) / run.attempted, "ratio"),
    }


def _layer_metrics(tracer) -> dict:
    metrics = {f"{name}_s": (tracer.self_s(name), "s") for name in SELF_TIMES}
    metrics.update({f"{name}_calls": (tracer.calls[name], "count") for name in CALL_COUNTS})
    metrics.update({name: (tracer.counts[name], unit) for name, unit in HOOK_COUNTS.items()})
    calls = tracer.calls["combine.combine_all"]
    raised = tracer.raised[("combine.combine_all", "TotalConflictError")]
    metrics["combine.total_conflict_share"] = (raised / calls if calls else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.names), "count")
    return metrics


def per_layer(workload, seed: int, work: Path, run: Run, spans_dir: Path) -> dict:
    """TRACED_RUNS traced iterations (set-up included), then an untraced one.

    Times come from the last traced iteration; every count must repeat
    exactly across the traced iterations. The untraced iteration gives the
    baseline for the tracing overhead and runs the cross-check.
    """
    tracers = []
    for _ in range(TRACED_RUNS):
        with tracing.Tracer() as tracer:
            paths, _ = _setup(workload, seed, work / "data")
            iteration = Iteration(workload, paths, work / "out", run, 0.0)
        iteration.check(run)
        del iteration
        tracers.append(tracer)
        if tracer.missing:
            run.notes.append(f"targets not found in the program: {tracer.missing}")
    paths, _ = _setup(workload, seed, work / "data")
    iteration = Iteration(workload, paths, work / "out", run, 0.0)
    iteration.check(run)
    if workload.crosscheck_path:
        iteration.crosscheck(workload.crosscheck_path, run)
    del iteration
    metrics = _layer_metrics(tracers[-1])
    counts = [
        {k: v for k, (v, unit) in _layer_metrics(t).items() if unit != "s"} for t in tracers
    ]
    if any(c != counts[0] for c in counts):
        run.fail(1, "self-test: counts differ between traced runs at one seed")
    for name in workload.predicted_zero:
        if metrics[name][0] != 0:
            run.fail(1, f"self-test: {name} = {metrics[name][0]}, predicted 0")
    metrics["combine.crosscheck_conflict_disagreements"] = (run.crosscheck_disagreements, "count")
    metrics["trace.overhead_s"] = (run.pipeline_s[-2] - run.pipeline_s[-1], "s")
    run.notes.append("pipeline_s per iteration, traced then untraced: "
                     + ", ".join(f"{t:.4f}" for t in run.pipeline_s))
    spans_dir.mkdir(parents=True, exist_ok=True)
    for k, tracer in enumerate(tracers, start=1):
        tracer.write_spans(spans_dir / f"{workload.name}-seed{seed}-run{k}.tsv")
    run.notes.append(f"spans written to {spans_dir}")
    return metrics


def _declared(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    run = Run()
    try:
        if args.trace:
            metrics = per_layer(workload, args.seed, work, run, ROOT / ".bench_work" / "spans")
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    left = tracing.installed_wrappers()
    if left:
        run.fail(1, f"self-test: wrappers still installed: {left}")
    if sorted(metrics) != sorted(_declared(args.trace)):
        sys.exit("bench: emitted metrics differ from those BENCHMARK.json declares")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44}{value:>18.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a child process of its own, so peak RSS stays per workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        print(f"== {name}: exit {child.returncode}")
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or 1
    names = list(results)
    first = next(iter(results.values()), {"metrics": {}})
    print(f"{'metric':<44}{'unit':<8}" + "".join(f"{n:>20}" for n in names))
    for metric, cell in first["metrics"].items():
        values = "".join(f"{results[n]['metrics'][metric]['value']:>20.6g}" for n in names)
        print(f"{metric:<44}{cell['unit']:<8}{values}")
    for n in names:
        r = results[n]
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measure for at least this long (end-to-end run)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
