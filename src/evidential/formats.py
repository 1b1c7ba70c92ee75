"""File formats: cases and reference intervals as CSV, everything else as JSON.

JSON documents are written with a fixed key order and 2-space indentation so
identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import Sequence

from .belief import BeliefInterval, Frame
from .correlate import CorrelationGraph, PruneResult
from .errors import DataFormatError
from .evaluate import CATEGORIES, CaseTrace, EvaluationReport, MatchCategory
from .extract import BpaSet, FrequencyEntry, FrequencyTable
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region


def dump_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc


# --- cases CSV -------------------------------------------------------------

def parse_case_table(path) -> tuple[list[str], list[CaseRecord]]:
    """Cases CSV: header case_id,outcome,<param...>; empty cells are missing.

    Duplicate case ids are kept but warned about, with later occurrences
    suffixed #2, #3, ... so downstream pairing stays unambiguous.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "case_id" or header[1] != "outcome":
            raise DataFormatError(f"{path}: header must start with case_id,outcome")
        params = header[2:]
        if len(set(params)) != len(params):
            raise DataFormatError(f"{path}: duplicate parameter column")
        cases: list[CaseRecord] = []
        seen: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            case_id, outcome = row[0], row[1]
            if not case_id or not outcome:
                raise DataFormatError(f"{path}:{lineno}: case_id and outcome must be non-empty")
            values: dict[str, float] = {}
            for param, cell in zip(params, row[2:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    values[param] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric value {cell!r} for {param}"
                    ) from None
            count = seen.get(case_id, 0) + 1
            seen[case_id] = count
            if count > 1:
                warnings.warn(f"{path}: duplicate case_id {case_id!r}, keeping as {case_id}#{count}")
                case_id = f"{case_id}#{count}"
            cases.append(CaseRecord(case_id, outcome, values))
    return params, cases


def parse_cases(path) -> list[CaseRecord]:
    return parse_case_table(path)[1]


def write_case_table(cases: Sequence[CaseRecord], path, params: Sequence[str] | None = None) -> None:
    if params is None:
        ordered: dict[str, None] = {}
        for case in cases:
            for param in case.values:
                ordered.setdefault(param)
        params = list(ordered)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "outcome", *params])
        for case in cases:
            row = [case.case_id, case.outcome]
            for param in params:
                value = case.values.get(param)
                row.append("" if value is None else repr(value))
            writer.writerow(row)


# --- reference intervals CSV -------------------------------------------------

def parse_intervals(path) -> ReferenceIntervals:
    """Intervals CSV: header parameter,low,high; one row per parameter."""
    bounds: dict[str, tuple[float, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["parameter", "low", "high"]:
            raise DataFormatError(f"{path}: header must be parameter,low,high")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 cells")
            param = row[0]
            if param in bounds:
                raise DataFormatError(f"{path}:{lineno}: parameter {param!r} named twice")
            try:
                bounds[param] = (float(row[1]), float(row[2]))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric bound") from None
    try:
        return ReferenceIntervals(bounds)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_intervals(intervals: ReferenceIntervals, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "low", "high"])
        for param, (low, high) in intervals.bounds.items():
            writer.writerow([param, repr(low), repr(high)])


# --- BPA sets ----------------------------------------------------------------

def read_bpa_set(path) -> BpaSet:
    doc = load_json(path)
    try:
        return BpaSet.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed BPA set ({exc})") from exc


def write_bpa_set(bpa: BpaSet, path) -> None:
    dump_json(bpa.to_dict(), path)


# --- frequency tables ----------------------------------------------------------

def frequency_table_to_dict(table: FrequencyTable) -> dict:
    return {
        "frame": list(table.frame.labels),
        "items": [
            {
                "parameter": item.parameter,
                "class": item.region.value,
                "counts": list(table.entries[item].counts),
                "support": table.entries[item].support,
            }
            for item in sorted(table.entries)
        ],
    }


def frequency_table_from_dict(doc: dict) -> FrequencyTable:
    frame = Frame(tuple(doc["frame"]))
    entries = {
        EvidenceItemId(raw["parameter"], Region(raw["class"])): FrequencyEntry(tuple(raw["counts"]))
        for raw in doc["items"]
    }
    return FrequencyTable(frame, entries)


def write_frequency_table(table: FrequencyTable, path) -> None:
    dump_json(frequency_table_to_dict(table), path)


def read_frequency_table(path) -> FrequencyTable:
    doc = load_json(path)
    try:
        return frequency_table_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed frequency table ({exc})") from exc


# --- evaluation reports ---------------------------------------------------------

def report_to_dict(report: EvaluationReport) -> dict:
    percentages = report.percentages
    return {
        "label": report.label,
        "frame": list(report.frame.labels),
        "total_cases": report.total_cases,
        "evaluated": report.evaluated,
        "counts": {cat.value: report.counts[cat] for cat in CATEGORIES},
        "percentages": None
        if percentages is None
        else {cat.value: percentages[cat] for cat in CATEGORIES},
        "errors": [[case_id, message] for case_id, message in report.errors],
        "traces": [_trace_to_dict(trace) for trace in report.traces],
    }


def _trace_to_dict(trace: CaseTrace) -> dict:
    return {
        "case_id": trace.case_id,
        "expected": trace.expected,
        "category": trace.category.value,
        "observed": list(trace.observed_labels),
        "observed_mass": trace.observed_mass,
        "conflict": trace.conflict,
        "intervals": [[iv.lower, iv.upper] for iv in trace.intervals],
        "evidence_used": [[item.parameter, item.region.value] for item in trace.evidence_used],
    }


def report_from_dict(doc: dict) -> EvaluationReport:
    frame = Frame(tuple(doc["frame"]))
    traces = tuple(
        CaseTrace(
            case_id=raw["case_id"],
            expected=raw["expected"],
            category=MatchCategory(raw["category"]),
            observed_labels=tuple(raw["observed"]),
            observed_mass=raw["observed_mass"],
            conflict=raw["conflict"],
            intervals=tuple(BeliefInterval(lo, hi) for lo, hi in raw["intervals"]),
            evidence_used=tuple(
                EvidenceItemId(param, Region(region)) for param, region in raw["evidence_used"]
            ),
        )
        for raw in doc["traces"]
    )
    return EvaluationReport(
        label=doc["label"],
        frame=frame,
        total_cases=doc["total_cases"],
        counts={cat: doc["counts"][cat.value] for cat in CATEGORIES},
        traces=traces,
        errors=tuple((case_id, message) for case_id, message in doc["errors"]),
    )


def read_report(path) -> EvaluationReport:
    doc = load_json(path)
    try:
        return report_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed report ({exc})") from exc


def write_report(report: EvaluationReport, path) -> None:
    dump_json(report_to_dict(report), path)


def format_report_table(reports: Sequence[EvaluationReport]) -> str:
    """Aligned text table: one category per row, one column per report."""
    labels = [report.label for report in reports]
    width = max(12, *(len(label) + 2 for label in labels)) if labels else 12
    lines = ["category" + "".join(label.rjust(width) for label in labels)]
    for cat in CATEGORIES:
        cells = []
        for report in reports:
            percentages = report.percentages
            cells.append("-" if percentages is None else f"{percentages[cat]:.1f}")
        lines.append(cat.value.ljust(8) + "".join(cell.rjust(width) for cell in cells))
    lines.append("cases".ljust(8) + "".join(str(r.evaluated).rjust(width) for r in reports))
    lines.append("errors".ljust(8) + "".join(str(len(r.errors)).rjust(width) for r in reports))
    return "\n".join(lines)


# --- pruning ------------------------------------------------------------------

def prune_report_doc(graph: CorrelationGraph, result: PruneResult) -> dict:
    return {
        "group": graph.group.value,
        "threshold": graph.threshold,
        "nodes": list(graph.nodes),
        "components": [
            {
                "nodes": list(decision.nodes),
                "edges": [[a, b, r] for a, b, r in decision.edges],
                "kept": list(decision.kept),
                "removed": list(decision.removed),
                "rule_applied": decision.rule,
            }
            for decision in result.components
        ],
        "removed_all": sorted(result.removed),
    }


def write_prune_report(graph: CorrelationGraph, result: PruneResult, path) -> None:
    dump_json(prune_report_doc(graph, result), path)


def write_removal_list(result: PruneResult, path) -> None:
    """Plain-text removal list, one parameter per line, for --drop-params."""
    Path(path).write_text("".join(f"{param}\n" for param in sorted(result.removed)))


def read_drop_params(path) -> frozenset[str]:
    params = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            params.add(line)
    return frozenset(params)
