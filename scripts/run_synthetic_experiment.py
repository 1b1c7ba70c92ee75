#!/usr/bin/env python3
"""Compare all extraction methods on one synthetic dataset.

Generates cases with a fixed seed, splits them into train/test, learns BPAs
with every method, evaluates each against the held-out cases, prints the
match-category table side by side, and runs pairwise exact McNemar tests on
the precise-match indicators. A case a method could not diagnose counts as
not a precise match for that method.

Usage:
    python3 scripts/run_synthetic_experiment.py --out-dir /tmp/exp
    python3 scripts/run_synthetic_experiment.py --cases 280 --holdout 40 --seed 42
"""

import argparse
from dataclasses import fields
from itertools import combinations
from pathlib import Path

from evidential import formats
from evidential.evaluate import compare_methods, evaluate_set
from evidential.extract import METHODS, extract_bpas
from evidential.pipeline import frequency
from evidential.synth import SynthConfig, generate_cases


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outcomes", type=int, default=SynthConfig.outcomes)
    parser.add_argument("--params", type=int, default=SynthConfig.params)
    parser.add_argument("--cases", type=int, default=SynthConfig.cases)
    parser.add_argument("--holdout", type=int, default=40)
    parser.add_argument("--seed", type=int, default=SynthConfig.seed)
    parser.add_argument("--separation", type=float, default=SynthConfig.separation)
    parser.add_argument("--missing-rate", type=float, default=SynthConfig.missing_rate)
    parser.add_argument("--out-dir", default=None, help="write reports here (optional)")
    return parser.parse_args()


def main():
    args = parse_args()
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    cases, intervals = generate_cases(config)
    split = config.cases - args.holdout
    train, test = cases[:split], cases[split:]
    print(
        f"{config.outcomes} outcomes, {config.params} parameters, "
        f"{len(train)} train / {len(test)} test cases, "
        f"seed {config.seed}, separation {config.separation}"
    )

    table = frequency(train, intervals)
    reports = []
    for method in METHODS:
        bpa = extract_bpas(table, method)
        report = evaluate_set(test, bpa, intervals)
        reports.append(report)
        if report.errors:
            print(f"  method {method}: {len(report.errors)} case(s) not diagnosed "
                  f"(no evidence, total conflict, unknown label or non-finite value); "
                  f"left out of its percentages, counted as not PM in the comparisons")

    print()
    print(formats.format_report_table(reports))
    print()

    for a, b in combinations(reports, 2):
        verdict = compare_methods(a, b)
        tag = "degenerate" if verdict.degenerate else (
            "significant" if verdict.significant else "not significant"
        )
        print(
            f"{a.label} vs {b.label}: PM-only {verdict.pm_only_a}/{verdict.pm_only_b}, "
            f"p = {verdict.p_value:.4g} ({tag} at {verdict.alpha})"
        )

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        params = sorted(intervals.parameters())
        formats.write_case_table(train, out / "train.csv", params)
        formats.write_case_table(test, out / "test.csv", params)
        formats.write_intervals(intervals, out / "intervals.csv")
        for report in reports:
            formats.write_report(report, out / f"report_{report.label.replace('(', '_').rstrip(')')}.json")
        print(f"\nartifacts written to {out}")


if __name__ == "__main__":
    main()
