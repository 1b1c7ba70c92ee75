"""The stage graph: frame, frequency, extract, modify, drop/prune, evaluate.

Each stage is defined once here; run_pipeline chains them and each matching
`evidential` subcommand runs one, so any downstream stage re-run from a
written artifact reproduces the final report byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import formats
from .belief import Frame
from .correlate import Group, build_graph, pearson_matrix, prune_components
from .errors import PipelineError
from .evaluate import EvaluationReport, evaluate_set
from .expert import all_modify, part_modify
from .extract import M3_DEFAULT_VARIANT, M3_VARIANTS, METHODS, BpaSet, FrequencyTable
from .extract import build_frequency_table, extract_bpas

MODIFY_MODES = ("part", "all")
EXPERT_MODES = ("none", *MODIFY_MODES)
PRUNE_GROUP = Group.BIOCHEMICAL  # only tags the auto-prune report


@dataclass
class PipelineConfig:
    """Settings of one run; each field is the `pipeline` subcommand flag of the same name."""

    method: str = "2a"
    m3_variant: str = M3_DEFAULT_VARIANT
    expert_mode: str = "none"
    drop_params: str | None = None  # text file of parameters to drop
    auto_prune: bool = False
    threshold: float = 0.5
    min_pairs: int = 10
    min_support: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.m3_variant not in M3_VARIANTS:
            raise ValueError(f"m3_variant must be one of {tuple(M3_VARIANTS)}")
        if self.expert_mode not in EXPERT_MODES:
            raise ValueError(f"expert_mode must be one of {EXPERT_MODES}")
        if self.auto_prune and self.drop_params:
            raise ValueError("give either --auto-prune or --drop-params, not both")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.min_pairs < 2:
            raise ValueError("min_pairs must be at least 2")
        if self.min_support < 1:
            raise ValueError("min_support must be at least 1")


def frame_of(train_cases) -> Frame:
    """The frame of discernment: the sorted outcome labels of the training cases."""
    return Frame(tuple(sorted({case.outcome for case in train_cases})))


def frequency(train_cases, intervals) -> FrequencyTable:
    """Outcome counts per evidence item over the training cases' frame."""
    return build_frequency_table(train_cases, intervals, frame_of(train_cases))


def extract(table: FrequencyTable, method: str, m3_variant: str, min_support: int, out) -> BpaSet:
    """Learn one mass function per evidence item and write the BPA set to out."""
    norm, theta = M3_VARIANTS[m3_variant]
    bpa = extract_bpas(table, method, m3_norm=norm, m3_theta=theta, min_support=min_support)
    formats.write_bpa_set(bpa, out)
    return bpa


def modify(bpa: BpaSet, expert: BpaSet, mode: str, out) -> BpaSet:
    """Overlay the expert table per item ("part") or per parameter ("all"); write to out."""
    modified = part_modify(bpa, expert) if mode == "part" else all_modify(bpa, expert)
    formats.write_bpa_set(modified, out)
    return modified


def prune(params, cases, threshold: float, min_pairs: int, group: Group, out, removal_out):
    """Screen correlated parameters within one group; write the JSON report
    to out and the plain-text removal list to removal_out. Returns the
    correlation graph and the prune result."""
    matrix = pearson_matrix(cases, params, min_pairs)
    graph = build_graph(matrix, threshold, group)
    result = prune_components(graph)
    formats.write_prune_report(graph, result, out)
    formats.write_removal_list(result, removal_out)
    return graph, result


def evaluate(test_cases, bpa: BpaSet, intervals, drop, out) -> EvaluationReport:
    """Diagnose and score every test case; write the report to out."""
    report = evaluate_set(test_cases, bpa, intervals, drop)
    formats.write_report(report, out)
    return report


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(
    config: PipelineConfig,
    train_path,
    test_path,
    intervals_path,
    expert_path=None,
    out_dir="pipeline-out",
) -> EvaluationReport:
    """Run every stage and return the final report.

    The frame is the sorted set of outcome labels of the train file (see
    frame_of). Test cases with a label outside it, or with a non-finite
    value, appear under the report's errors. Auto-pruning treats all
    parameters of the train file as one measurement group; keep groups in
    separate files when that matters.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with _stage("parse"):
        train_params, train_cases = formats.parse_case_table(train_path)
        _, test_cases = formats.parse_case_table(test_path)
        intervals = formats.parse_intervals(intervals_path)
        expert = None
        if config.expert_mode != "none":
            if expert_path is None:
                raise ValueError("expert modification requested without an expert table")
            expert = formats.read_bpa_set(expert_path)

    with _stage("frequency"):
        table = frequency(train_cases, intervals)
        formats.write_frequency_table(table, out / "frequency_table.json")

    with _stage("extract"):
        bpa = extract(table, config.method, config.m3_variant, config.min_support, out / "bpa.json")

    if expert is not None:
        with _stage("expert"):
            bpa = modify(bpa, expert, config.expert_mode, out / "bpa_modified.json")

    drop: frozenset[str] = frozenset()
    if config.drop_params:
        with _stage("drop"):
            drop = formats.read_drop_params(config.drop_params)
            (out / "dropped_params.txt").write_text("".join(f"{p}\n" for p in sorted(drop)))
    elif config.auto_prune:
        with _stage("prune"):
            _, result = prune(train_params, train_cases, config.threshold, config.min_pairs,
                              PRUNE_GROUP, out / "prune_report.json", out / "dropped_params.txt")
            drop = result.removed

    with _stage("evaluate"):
        report = evaluate(test_cases, bpa, intervals, drop, out / "report.json")
        (out / "report.txt").write_text(formats.format_report_table([report]) + "\n")
    return report
