"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload draws cases from the program's own synthetic generator
(14 outcomes, 12 parameters, separation 1.5, missing rate 0.1): the first
cases train, the rest are test cases. Only the written CSV/JSON files reach
the program.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from evidential import cli, formats
from evidential.belief import Frame, MassFunction
from evidential.extract import BpaSet
from evidential.records import EvidenceItemId
from evidential.synth import outcome_labels

OUTCOMES = 14
PARAMS = 12
SEPARATION = 1.5
MISSING_RATE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int
    test: int
    method: str
    pipeline_flags: tuple[str, ...] = ()
    expert: bool = False
    # Other combination path forced on a sample of cases, or None to skip.
    crosscheck_path: str | None = None
    # Per-layer call counts the workload's design says must stay zero.
    predicted_zero: tuple[str, ...] = ()

    def params(self) -> dict:
        return {
            "outcomes": OUTCOMES,
            "params": PARAMS,
            "separation": SEPARATION,
            "missing_rate": MISSING_RATE,
            "cases": self.cases,
            "train": self.cases - self.test,
            "test": self.test,
            "method": self.method,
            "pipeline_flags": list(self.pipeline_flags),
            "expert_table": self.expert,
            "crosscheck_path": self.crosscheck_path,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="consonant-dense",
            cases=1600,
            test=400,
            method="1",
            crosscheck_path="sparse",
            predicted_zero=("combine.dempster_combine_calls",),
        ),
        Workload(
            name="sparse-many-cases",
            cases=20000,
            test=10000,
            method="2b",
            pipeline_flags=("--expert-mode", "part", "--auto-prune", "--threshold", "0.8"),
            expert=True,
            crosscheck_path="commonality",
            predicted_zero=(
                "lattice.subset_sum_calls",
                "lattice.superset_sum_calls",
                "lattice.superset_diff_calls",
            ),
        ),
        Workload(
            name="m3-dense",
            cases=480,
            test=200,
            method="3",
            predicted_zero=("combine.dempster_combine_calls",),
        ),
    )
}


def expert_table(seed: int, train_csv: Path, intervals_csv: Path) -> BpaSet:
    """A part-mode expert table drawn from the seed and the training cases.

    About a third of the evidence items get an opinion with two foci: the
    outcomes that make up at least 5% of the item's training cases, and the
    whole frame. About a fifth get an explicit vacuous entry, which part mode
    must ignore. An expert that named one random outcome per item would move
    the precise-match share by 0.3 from one seed to the next.
    """
    rng = random.Random(seed)
    intervals = formats.parse_intervals(intervals_csv)
    seen: dict[EvidenceItemId, Counter] = {}
    for case in formats.parse_cases(train_csv):
        for param, value in case.values.items():
            item = EvidenceItemId(param, intervals.region(param, value))
            seen.setdefault(item, Counter())[case.outcome] += 1
    frame = Frame(tuple(outcome_labels(OUTCOMES)))
    entries = {}
    for item in sorted(seen):
        draw = rng.random()
        counts = seen[item]
        floor = 0.05 * sum(counts.values())
        named = tuple(sorted(label for label, n in counts.items() if n >= floor))
        if draw < 0.35 and len(named) < OUTCOMES:
            weight = round(rng.uniform(0.3, 0.7), 3)
            entries[item] = MassFunction.from_labels(
                frame, {named: weight, frame.labels: 1.0 - weight}
            )
        elif draw < 0.55:
            entries[item] = MassFunction.vacuous(frame)
    return BpaSet(frame, entries, method="expert")


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> dict[str, Path]:
    """Generate and write the workload's input files; returns them by role."""
    argv = [
        "synth",
        "--outcomes", str(OUTCOMES),
        "--params", str(PARAMS),
        "--cases", str(workload.cases),
        "--seed", str(seed),
        "--separation", str(SEPARATION),
        "--missing-rate", str(MISSING_RATE),
        "--holdout", str(workload.test),
        "--out-dir", str(data_dir),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"evidential synth exited with {code}")
    paths = {
        "train": data_dir / "train.csv",
        "test": data_dir / "test.csv",
        "intervals": data_dir / "intervals.csv",
    }
    if workload.expert:
        paths["expert"] = data_dir / "expert.json"
        table = expert_table(seed, paths["train"], paths["intervals"])
        formats.write_bpa_set(table, paths["expert"])
    return paths
