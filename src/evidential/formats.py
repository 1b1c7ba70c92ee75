"""File formats: cases and reference intervals as CSV, everything else as JSON.

JSON documents are written with a fixed key order and 2-space indentation so
identical inputs always serialize to identical bytes. The evaluation report,
the one large document, is streamed trace by trace by a writer of its own; its
bytes are those of json.dump(report_to_dict(report), indent=2) plus a newline.
A report is checked once, when it is read: its tallies, categories, observed
labels and belief intervals must be ones the program could have written.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .belief import BeliefInterval, Frame, clip_interval
from .correlate import CorrelationGraph, PruneResult
from .errors import DataFormatError
from .evaluate import CATEGORIES, CaseTrace, EvaluationReport, MatchCategory, classify_match
from .extract import BpaSet, FrequencyTable
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region


def dump_json(doc: dict, path) -> None:
    # Streamed chunk by chunk: the same bytes as json.dumps(doc, indent=2)
    # plus a newline, without holding the whole document as one string.
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc


# --- cases CSV -------------------------------------------------------------

def parse_case_table(path) -> tuple[list[str], list[CaseRecord]]:
    """Cases CSV: header case_id,outcome,<param...>; empty cells are missing.

    A row's values are read by one dict comprehension over its non-empty
    cells. Only a row where that raises (a whitespace-only or non-numeric
    cell) is read again cell by cell, which skips the blank cell or names
    the bad one. Duplicate case ids are kept but warned about, each repeat
    taking the first free suffix #2, #3, ... so downstream pairing stays
    unambiguous.
    Parameter names must read back from a removal list as written: not
    empty, not padded with whitespace, on one line and not starting with #.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "case_id" or header[1] != "outcome":
            raise DataFormatError(f"{path}: header must start with case_id,outcome")
        params = header[2:]
        if len(set(params)) != len(params):
            raise DataFormatError(f"{path}: duplicate parameter column")
        for param in params:
            if param != param.strip() or param.splitlines() != [param] or param.startswith("#"):
                raise DataFormatError(f"{path}: parameter name {param!r} must be non-empty, "
                                      "unpadded, on one line and not start with #")
        cases: list[CaseRecord] = []
        given: dict[str, int] = {}  # id given so far -> first suffix a repeat may try
        for lineno, row in enumerate(reader, start=2):
            # a row with a case id is not blank, whatever its other cells hold
            if not row or (not row[0].strip() and all(not cell.strip() for cell in row)):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            case_id, outcome = row[0], row[1]
            if not case_id or not outcome:
                raise DataFormatError(f"{path}:{lineno}: case_id and outcome must be non-empty")
            try:
                # float strips the whitespace str.strip does, so a padded cell reads alike
                values = {param: float(cell) for param, cell in zip(params, row[2:]) if cell}
            except ValueError:
                values = _row_values(path, lineno, params, row)
            if case_id in given:
                k = given[case_id]
                while f"{case_id}#{k}" in given:
                    k += 1
                given[case_id] = k + 1
                warnings.warn(f"{path}: duplicate case_id {case_id!r}, keeping as {case_id}#{k}")
                case_id = f"{case_id}#{k}"
            given[case_id] = 2
            cases.append(CaseRecord._of_floats(case_id, outcome, values))
    return params, cases


def _row_values(path, lineno: int, params: list[str], row: list[str]) -> dict[str, float]:
    """One row's values cell by cell: a whitespace-only cell is missing, and
    the first non-numeric cell is a DataFormatError naming its line."""
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
    return values


def parse_cases(path) -> list[CaseRecord]:
    return parse_case_table(path)[1]


def write_case_table(cases: Sequence[CaseRecord], path, params: Sequence[str]) -> None:
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


# --- paired categories CSV ------------------------------------------------------

def read_paired(path) -> dict[str, tuple[str, str]]:
    """Paired CSV for `compare --paired`: header case_id,category_a,category_b;
    one row per case, each category PM, IM or NM, no case id twice."""
    paired: dict[str, tuple[str, str]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["case_id", "category_a", "category_b"]:
            raise DataFormatError(f"{path}: header must be case_id,category_a,category_b")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 cells")
            case_id, cat_a, cat_b = row
            if case_id in paired:
                raise DataFormatError(f"{path}:{lineno}: case {case_id!r} is listed twice")
            if not {cat_a, cat_b} <= {cat.value for cat in MatchCategory}:
                raise DataFormatError(
                    f"{path}:{lineno}: case {case_id!r}: categories must be PM, IM or NM"
                )
            paired[case_id] = (cat_a, cat_b)
    return paired


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


def write_frequency_table(table: FrequencyTable, path) -> None:
    dump_json(frequency_table_to_dict(table), path)


# --- evaluation reports ---------------------------------------------------------

def _report_header(report: EvaluationReport) -> dict:
    """Every key of the report document but the traces, in document order."""
    percentages = report.percentages
    return {
        "label": report.label,
        "frame": list(report.frame.labels),
        "total_cases": report.total_cases,
        "evaluated": report.evaluated,
        "counts": {cat.value: count for cat, count in report.counts.items()},
        "percentages": None if percentages is None else {c.value: v for c, v in percentages.items()},
        "errors": [[case_id, message] for case_id, message in report.errors],
    }


def report_to_dict(report: EvaluationReport) -> dict:
    return {**_report_header(report), "traces": [_trace_to_dict(t) for t in report.traces]}


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


# How far a computed float read from a report may spill past its range: an
# interval bound past [0, 1], an observed mass past 1 (a lone focus of a BPA
# file keeps a total within 1e-12 of 1 verbatim), or a dense-path conflict
# below 0 (Mobius round-off).
_SPILL = 1e-9


def _read_interval(lower, upper) -> BeliefInterval:
    """Finite bounds in order within [0, 1] up to 1e-9, clipped as computed ones are."""
    lower, upper = float(lower), float(upper)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("belief interval bounds must be finite")
    if lower > upper + _SPILL or lower < -_SPILL or upper > 1.0 + _SPILL:
        raise ValueError(f"invalid belief interval [{lower}, {upper}]")
    return clip_interval(lower, upper)


def _is_number(value) -> bool:
    """True for a JSON number; JSON's true and false read as bools, not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_trace(raw: dict, frame: Frame) -> CaseTrace:
    """A trace the program could have written: an observed set on the frame in
    frame order, earning its category; a mass in (0, 1]; a conflict in
    [0, 1); one interval per outcome."""
    case = f"case {raw['case_id']!r}"
    observed, category = frame.mask_of(raw["observed"]), MatchCategory(raw["category"])
    labels = frame.labels_of(observed)
    if not isinstance(raw["observed"], list) or tuple(raw["observed"]) != labels:
        raise ValueError(f"{case}: observed labels {raw['observed']!r} are not "
                         f"a set's labels in frame order")
    if category != classify_match(observed, raw["expected"], frame):
        raise ValueError(f"{case}: category {category.value} disagrees with its observed set")
    mass, conflict = raw["observed_mass"], raw["conflict"]
    # Comparisons with NaN are false, so these refuse NaN as well.
    if not (_is_number(mass) and 0.0 < mass <= 1.0 + _SPILL):
        raise ValueError(f"{case}: observed_mass {mass!r} is not a number in (0, 1]")
    if not (_is_number(conflict) and -_SPILL <= conflict < 1.0):
        raise ValueError(f"{case}: conflict {conflict!r} is not a number in [0, 1)")
    if len(raw["intervals"]) != frame.n:
        raise ValueError(f"{case}: {len(raw['intervals'])} intervals for "
                         f"a {frame.n}-outcome frame")
    return CaseTrace(
        raw["case_id"], observed, labels, float(mass), float(conflict),
        tuple(_read_interval(lo, hi) for lo, hi in raw["intervals"]),
        tuple(EvidenceItemId(param, Region(region)) for param, region in raw["evidence_used"]),
        raw["expected"], category,
    )


def report_from_dict(doc: dict) -> EvaluationReport:
    """Rebuild a report, refusing one the program could not have written: a
    trace _read_trace refuses, or a tally that disagrees with the traces and
    errors."""
    frame = Frame(tuple(doc["frame"]))
    report = EvaluationReport(
        label=doc["label"],
        frame=frame,
        traces=tuple(_read_trace(raw, frame) for raw in doc["traces"]),
        errors=tuple((case_id, message) for case_id, message in doc["errors"]),
    )
    header = _report_header(report)
    for key in ("total_cases", "evaluated", "counts", "percentages"):
        if doc[key] != header[key]:
            raise ValueError(f"{key} {doc[key]!r} disagrees with the traces ({header[key]!r})")
    return report


def read_report(path) -> EvaluationReport:
    doc = load_json(path)
    try:
        return report_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed report ({exc})") from exc


def write_report(report: EvaluationReport, path) -> None:
    """Stream the report one trace at a time, as the same bytes as
    json.dumps(report_to_dict(report), indent=2) plus a newline."""
    head = json.dumps({**_report_header(report), "traces": []}, indent=2)
    with open(path, "w") as fh:
        if not report.traces:
            fh.write(head + "\n")
            return
        # "traces" is the header's last key, so it ends in `"traces": []\n}`.
        fh.write(head[: -len("[]\n}")] + "[\n")
        # Traces whose cases combined to one mass function share its interval
        # tuple; its text is made once. Keyed by id, which stays the tuple's
        # own while the report holds every trace.
        intervals_text: dict[int, str | None] = {}
        separator = ""
        for trace in report.traces:
            key = id(trace.intervals)
            if key not in intervals_text:
                intervals_text[key] = _intervals_text(trace.intervals)
            fh.write(separator + _trace_text(trace, intervals_text[key]))
            separator = ",\n"
        fh.write("\n  ]\n}\n")


_BOUNDS = attrgetter("lower", "upper")


def _trace_text(trace: CaseTrace, intervals: str | None) -> str:
    """One trace as json.dumps(indent=2) writes it inside the traces list,
    given the text of its intervals (None when they are not finite floats).

    Strings go through json's own C escaper and finite floats through
    float.__repr__, which is what json.dumps writes for them. The category
    and the regions are str enums, so their text is their value. A trace with
    any other value (NaN, an infinity, an int) falls back to json.dumps."""
    template = _trace_template(len(trace.observed_labels), len(trace.evidence_used))
    try:
        if intervals is None or not math.isfinite(trace.observed_mass + trace.conflict):
            raise ValueError("non-finite float")
        return template % (
            *map(_encode_str, (trace.case_id, trace.expected, trace.category)),
            *map(_encode_str, trace.observed_labels),
            *map(float.__repr__, (trace.observed_mass, trace.conflict)),
            intervals,
            *map(_encode_str, chain.from_iterable(trace.evidence_used)),
        )
    except (TypeError, ValueError):
        text = json.dumps(_trace_to_dict(trace), indent=2)
        return "    " + text.replace("\n", "\n    ")


def _intervals_text(intervals) -> str | None:
    """A trace's intervals list as json.dumps(indent=2) writes it there, or
    None when a bound is not a finite float."""
    bounds = [*chain.from_iterable(map(_BOUNDS, intervals))]
    try:
        if not math.isfinite(sum(bounds)):
            return None
        return _list_template(len(intervals), _PAIR) % tuple(map(float.__repr__, bounds))
    except TypeError:
        return None


_PAIR = "[\n          %s,\n          %s\n        ]"


@functools.lru_cache(maxsize=1024)
def _list_template(count: int, item: str) -> str:
    """A list of count items inside a trace, each item a %-template."""
    if not count:
        return "[]"
    return "[\n" + ",\n".join([" " * 8 + item] * count) + "\n      ]"


@functools.lru_cache(maxsize=1024)
def _trace_template(observed: int, evidence: int) -> str:
    """The %-template of one trace with these list lengths; every value is a
    %s slot, filled in field order, and the intervals list is one slot."""
    return (
        "    {\n"
        '      "case_id": %s,\n'
        '      "expected": %s,\n'
        '      "category": %s,\n'
        f'      "observed": {_list_template(observed, "%s")},\n'
        '      "observed_mass": %s,\n'
        '      "conflict": %s,\n'
        '      "intervals": %s,\n'
        f'      "evidence_used": {_list_template(evidence, _PAIR)}\n'
        "    }"
    )


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


def write_removal_list(params: Iterable[str], path) -> None:
    """Plain-text removal list, one parameter per line in sorted order, as
    read_drop_params reads it for --drop-params."""
    Path(path).write_text("".join(f"{param}\n" for param in sorted(params)))


def read_drop_params(path, columns: Iterable[str] | None = None) -> frozenset[str]:
    """A removal list: one parameter per line, blank lines and lines starting
    with # skipped. columns, when given, are the parameter columns of the
    case table the list is applied to; a listed name outside them drops
    nothing, so one warning names every such parameter."""
    params = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            params.add(line)
    if columns is not None:
        unknown = sorted(params.difference(columns))
        if unknown:
            warnings.warn(f"{path}: no such parameter in the case table, nothing dropped for "
                          f"{', '.join(map(repr, unknown))}")
    return frozenset(params)
