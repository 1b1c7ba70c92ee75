"""Command-line surface for the evidential reasoning pipeline.

`pipeline` and the stage subcommands build their settings as one
PipelineConfig (SynthConfig for `synth`), so both views take the same
defaults and refuse a bad setting with the same message.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
inputs, or an invalid setting), 3 pipeline error (total conflict, or no case
had usable evidence). A failed `pipeline` stage exits as its cause would.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import formats
from .correlate import Group
from .errors import (
    DataFormatError,
    EvidenceError,
    NoEvidenceError,
    PipelineError,
    TotalConflictError,
)
from .evaluate import CASE_ERRORS, compare_methods, diagnose_case
from .extract import M3_VARIANTS, METHODS
from .pipeline import EXPERT_MODES, MODIFY_MODES, PipelineConfig, run_pipeline
from .pipeline import evaluate, extract, frequency, modify, prune
from .synth import SynthConfig, generate_cases, parameter_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPELINE = 3

_DATA_ERRORS = (EvidenceError, OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="evidential", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--outcomes", type=int, default=SynthConfig.outcomes)
    p.add_argument("--params", type=int, default=SynthConfig.params)
    p.add_argument("--cases", type=int, default=SynthConfig.cases)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--separation", type=float, default=SynthConfig.separation)
    p.add_argument("--missing-rate", type=float, default=SynthConfig.missing_rate)
    p.add_argument("--holdout", type=int, default=0,
                   help="also write train/test CSVs with this many test cases")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("extract", help="learn BPAs from a cases file")
    p.add_argument("--cases", required=True)
    p.add_argument("--intervals", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--m3-variant", choices=M3_VARIANTS, default=PipelineConfig.m3_variant)
    p.add_argument("--min-support", type=int, default=PipelineConfig.min_support)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("modify", help="overlay expert BPAs onto generated ones")
    p.add_argument("--bpa", required=True)
    p.add_argument("--expert", required=True)
    p.add_argument("--mode", required=True, choices=MODIFY_MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_modify)

    p = sub.add_parser("prune", help="screen correlated parameters within one group")
    p.add_argument("--cases", required=True)
    p.add_argument("--group", required=True, choices=[g.value for g in Group])
    p.add_argument("--threshold", type=float, default=PipelineConfig.threshold)
    p.add_argument("--min-pairs", type=int, default=PipelineConfig.min_pairs)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--removal-out", default=None,
                   help="plain-text removal list (default: <out>.params.txt)")
    p.set_defaults(handler=cmd_prune)

    p = sub.add_parser("diagnose", help="per-case belief intervals for every outcome")
    p.add_argument("--bpa", required=True)
    p.add_argument("--case", required=True, help="cases CSV; every row is diagnosed")
    p.add_argument("--intervals", required=True)
    p.add_argument("--drop-params", default=None)
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("evaluate", help="score a BPA set against labelled test cases")
    p.add_argument("--bpa", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--intervals", required=True)
    p.add_argument("--drop-params", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("compare", help="exact McNemar test between two reports")
    p.add_argument("--report", action="append", required=True, dest="reports",
                   metavar="REPORT", help="give twice: report A then report B")
    p.add_argument("--paired", default=None,
                   help="optional CSV case_id,category_a,category_b replacing the pairing "
                        "of the reports' cases")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("pipeline", help="train, extract, adjust, drop, evaluate in one go")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--intervals", required=True)
    p.add_argument("--method", default=PipelineConfig.method, choices=METHODS)
    p.add_argument("--m3-variant", choices=M3_VARIANTS, default=PipelineConfig.m3_variant)
    p.add_argument("--expert", default=None)
    p.add_argument("--expert-mode", default=PipelineConfig.expert_mode, choices=EXPERT_MODES)
    p.add_argument("--drop-params", default=PipelineConfig.drop_params,
                   help="text file of parameters to drop")
    p.add_argument("--auto-prune", action="store_true", default=PipelineConfig.auto_prune)
    p.add_argument("--threshold", type=float, default=PipelineConfig.threshold)
    p.add_argument("--min-pairs", type=int, default=PipelineConfig.min_pairs)
    p.add_argument("--min-support", type=int, default=PipelineConfig.min_support)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failed pipeline stage exits as its cause would
        cause = exc.__cause__ if isinstance(exc, PipelineError) else exc
        if isinstance(cause, (TotalConflictError, NoEvidenceError)):
            return EXIT_PIPELINE
        return EXIT_DATA if isinstance(cause, _DATA_ERRORS) else EXIT_PIPELINE


def _config(cls, args):
    """A cls built from every parsed flag that names one of its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def cmd_synth(args) -> int:
    config = _config(SynthConfig, args)
    if args.holdout < 0 or args.holdout >= config.cases:
        raise ValueError("holdout must be smaller than the case count")
    cases, intervals = generate_cases(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = parameter_names(config.params)
    formats.write_case_table(cases, out / "cases.csv", params)
    formats.write_intervals(intervals, out / "intervals.csv")
    formats.dump_json({**asdict(config), "holdout": args.holdout}, out / "meta.json")
    written = ["cases.csv", "intervals.csv", "meta.json"]
    if args.holdout:
        split = config.cases - args.holdout
        formats.write_case_table(cases[:split], out / "train.csv", params)
        formats.write_case_table(cases[split:], out / "test.csv", params)
        written += ["train.csv", "test.csv"]
    print(f"wrote {', '.join(written)} to {out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    config = _config(PipelineConfig, args)
    cases = formats.parse_cases(args.cases)
    intervals = formats.parse_intervals(args.intervals)
    table = frequency(cases, intervals)
    bpa = extract(table, config.method, config.m3_variant, config.min_support, args.out)
    print(f"extracted {len(bpa.entries)} evidence items ({bpa.label()}) to {args.out}")
    return EXIT_OK


def cmd_modify(args) -> int:
    bpa = formats.read_bpa_set(args.bpa)
    expert = formats.read_bpa_set(args.expert)
    modified = modify(bpa, expert, args.mode, args.out)
    print(f"wrote {modified.label()} ({len(modified.entries)} items) to {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    config = _config(PipelineConfig, args)
    params, cases = formats.parse_case_table(args.cases)
    removal_out = args.removal_out or f"{args.out}.params.txt"
    graph, result = prune(params, cases, config.threshold, config.min_pairs, Group(args.group),
                          args.out, removal_out)
    print(
        f"{len(graph.edges)} edge(s) at |r| >= {config.threshold}: "
        f"keep {len(result.kept)}, remove {sorted(result.removed)}"
    )
    print(f"report: {args.out}; removal list: {removal_out}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    bpa = formats.read_bpa_set(args.bpa)
    params, cases = formats.parse_case_table(args.case)
    intervals = formats.parse_intervals(args.intervals)
    drop = formats.read_drop_params(args.drop_params, params) if args.drop_params else frozenset()
    diagnosed = 0
    failures = []
    for case in cases:
        try:
            result = diagnose_case(case, bpa, intervals, drop)
        except CASE_ERRORS as exc:
            failures.append((case.case_id, str(exc)))
            continue
        diagnosed += 1
        observed = "{" + ",".join(result.observed_labels) + "}"
        print(
            f"case {result.case_id}: observed {observed} "
            f"mass {result.observed_mass:.4f} conflict {result.conflict:.4f} "
            f"({len(result.evidence_used)} evidence items)"
        )
        print(f"  {'outcome':<10}{'belief':>10}{'plausibility':>14}")
        for label, interval in zip(bpa.frame.labels, result.intervals):
            print(f"  {label:<10}{interval.lower:>10.4f}{interval.upper:>14.4f}")
    for case_id, message in failures:
        print(f"case {case_id}: FAILED ({message})", file=sys.stderr)
    if diagnosed == 0:
        print("error: no case could be diagnosed", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def cmd_evaluate(args) -> int:
    bpa = formats.read_bpa_set(args.bpa)
    params, cases = formats.parse_case_table(args.test)
    intervals = formats.parse_intervals(args.intervals)
    drop = formats.read_drop_params(args.drop_params, params) if args.drop_params else frozenset()
    report = evaluate(cases, bpa, intervals, drop, args.out)
    print(formats.format_report_table([report]))
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.reports) != 2:
        raise DataFormatError("compare needs exactly two --report arguments")
    report_a = formats.read_report(args.reports[0])
    report_b = formats.read_report(args.reports[1])
    paired = formats.read_paired(args.paired) if args.paired else None
    verdict = compare_methods(report_a, report_b, paired, alpha=args.alpha)
    print(f"{verdict.label_a} vs {verdict.label_b}: "
          f"PM only under A = {verdict.pm_only_a}, PM only under B = {verdict.pm_only_b}")
    if verdict.degenerate:
        print("no discordant pairs; comparison is uninformative (p = 1.0)")
    else:
        outcome = "significant" if verdict.significant else "not significant"
        print(f"exact McNemar p = {verdict.p_value:.6g} -> {outcome} at alpha = {verdict.alpha}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = _config(PipelineConfig, args)
    report = run_pipeline(config, args.train, args.test, args.intervals, args.expert, args.out_dir)
    print(formats.format_report_table([report]))
    print(f"artifacts in {args.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
