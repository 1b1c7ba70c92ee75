import csv
import json
import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evidential import formats
from evidential.belief import BeliefInterval, Frame, MassFunction
from evidential.correlate import CorrelationMatrix, Group, build_graph, prune_components
from evidential.errors import DataFormatError
from evidential.cli import main
from evidential.evaluate import CATEGORIES, CaseTrace, EvaluationReport, classify_match, evaluate_set
from evidential.extract import (
    BpaSet,
    FrequencyEntry,
    FrequencyTable,
    build_frequency_table,
    extract_bpas,
)
from evidential.records import (
    CaseRecord,
    EvidenceItemId,
    ReferenceIntervals,
    Region,
    discretize,
)
from evidential.synth import SynthConfig, generate_cases, parameter_names

from helpers import parse_case_table_reference

ABC = Frame(("a", "b", "c"))

_CELLS = st.sampled_from([
    "", " ", "\t ", "1.5", " 2.5 ", "\t-3\t", "-0.0", "0", "nan", " nan ", "NaN", "inf",
    "-inf", "1_0", "_1", "1e3", "abc", "1 2", "\u00a07\u00a0", "\u2003",
]) | st.floats().map(repr)
_IDS = st.sampled_from(["x", "x#2", "x#3", "c1", "a,b", "line1\nline2", " ", ""])
_OUTCOMES = st.sampled_from(["a", "b", "", " "])


@st.composite
def _case_tables(draw):
    """(params, rows) of a cases CSV: mostly full-width rows, some rows of
    blank cells only, some of the wrong width."""
    params = ["P1", "P2", "P3"][: draw(st.integers(0, 3))]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["case", "case", "case", "blank", "width"]))
        if kind == "blank":
            rows.append(draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=5)))
        else:
            count = len(params) if kind == "case" else draw(st.integers(0, 5))
            rows.append([draw(_IDS), draw(_OUTCOMES), *(draw(_CELLS) for _ in range(count))])
    return params, rows


def _parsed(parse, path):
    """What a parser gives for path, with every float as its repr, and the
    warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            params, cases = parse(path)
            result = (params, [(c.case_id, c.outcome, [(p, repr(v)) for p, v in c.values.items()])
                               for c in cases])
        except DataFormatError as exc:
            result = ("DataFormatError", str(exc))
    return result, [str(w.message) for w in caught]


class TestDiscretize:
    def test_boundaries_belong_to_within(self):
        assert discretize(10.0, (10.0, 20.0)) is Region.WITHIN
        assert discretize(20.0, (10.0, 20.0)) is Region.WITHIN

    def test_above_and_below(self):
        assert discretize(20.0001, (10.0, 20.0)) is Region.ABOVE
        assert discretize(9.9999, (10.0, 20.0)) is Region.BELOW

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            discretize(math.nan, (10.0, 20.0))
        with pytest.raises(ValueError):
            discretize(math.inf, (10.0, 20.0))


class TestIntervals:
    def test_low_must_be_below_high(self):
        with pytest.raises(ValueError, match="low < high"):
            ReferenceIntervals({"P": (3.0, 3.0)})

    def test_round_trip(self, tmp_path):
        intervals = ReferenceIntervals({"P1": (10.0, 20.0), "P2": (0.5, 1.25)})
        path = tmp_path / "intervals.csv"
        formats.write_intervals(intervals, path)
        assert formats.parse_intervals(path) == intervals

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("param,lo,hi\nP1,1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            formats.parse_intervals(path)

    def test_duplicate_parameter(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("parameter,low,high\nP1,1,2\nP1,3,4\n")
        with pytest.raises(DataFormatError, match="twice"):
            formats.parse_intervals(path)


class TestCases:
    def test_documented_row(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,outcome,AALB,ACA,AP\nc1,6,2.1,,3.4\n")
        cases = formats.parse_cases(path)
        assert cases == [CaseRecord("c1", "6", {"AALB": 2.1, "AP": 3.4})]

    def test_empty_file_after_header(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,outcome,AALB\n")
        assert formats.parse_cases(path) == []

    def test_missing_outcome_column(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,AALB\nc1,2.1\n")
        with pytest.raises(DataFormatError, match="header"):
            formats.parse_cases(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,outcome,AALB\nc1,6,high\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            formats.parse_cases(path)

    def test_duplicate_ids_kept_with_suffix(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,outcome,AALB\nc1,6,1.0\nc1,7,2.0\n")
        with pytest.warns(UserWarning, match="duplicate case_id"):
            cases = formats.parse_cases(path)
        assert [c.case_id for c in cases] == ["c1", "c1#2"]
        # a repeat takes the first suffix no earlier row was given
        path.write_text("case_id,outcome,AALB\nx,6,1.0\nx#2,7,2.0\nx,6,3.0\n")
        with pytest.warns(UserWarning, match="keeping as x#3"):
            cases = formats.parse_cases(path)
        assert [c.case_id for c in cases] == ["x", "x#2", "x#3"]

    def test_round_trip(self, tmp_path):
        cases = [
            CaseRecord("c1", "a", {"P1": 1.5, "P2": 2.25}),
            CaseRecord("c2", "b", {"P2": -3.125}),
        ]
        path = tmp_path / "cases.csv"
        formats.write_case_table(cases, path, ["P1", "P2"])
        assert formats.parse_cases(path) == cases

    def test_record_is_slotted(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,outcome,P1,P2\nc1,a,1.5,\n")
        (case,) = formats.parse_cases(path)
        assert not hasattr(case, "__dict__")
        assert case == CaseRecord("c1", "a", {"P1": 1.5})

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_case_tables())
    @example(table=(["P1", "P2"], [[" x ", "a", " 1.5 ", " "], ["y", "b", "\t", "\t2\t"]]))
    @example(table=(["P1"], [["", " "], ["x", "a", "nan"], ["y", "a", "inf"], ["z", "a", "1_0"]]))
    @example(table=(["P1"], [["a,b", "a", "1"], ["line1\nline2", "b", ""], ["c", "a", "1e3"]]))
    @example(table=(["P1"], [["x", "a", "1"], ["x#2", "a", "2"], ["x", "a", "3"]]))
    @example(table=(["P1"], [["x", "a", "1"], ["y", "a", "1", "2"]]))
    @example(table=(["P1", "P2"], [["x", "a", "1", "abc"]]))
    def test_lean_parse_matches_the_per_cell_parse(self, tmp_path, table):
        """Same params, records (value key order and float bits included),
        warnings and DataFormatError messages as the per-cell parser."""
        params, rows = table
        path = tmp_path / "cases.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case_id", "outcome", *params])
            writer.writerows(rows)
        assert _parsed(formats.parse_case_table, path) == _parsed(parse_case_table_reference, path)

    def test_generated_table_never_reads_cell_by_cell(self, tmp_path, monkeypatch):
        cases, _ = generate_cases(SynthConfig(params=6, cases=400, seed=5, missing_rate=0.2))
        path = tmp_path / "cases.csv"
        formats.write_case_table(cases, path, parameter_names(6))
        per_cell = []
        row_values = formats._row_values

        def spy(path, lineno, params, row):
            per_cell.append(lineno)
            return row_values(path, lineno, params, row)

        monkeypatch.setattr(formats, "_row_values", spy)
        assert formats.parse_cases(path) == cases
        assert sum(len(case.values) < 6 for case in cases) > 100  # many rows with an empty cell
        assert per_cell == []

        rows = list(csv.reader(path.read_text().splitlines()))
        rows[6][3] = "  "  # line 7 of the file
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        params, parsed = formats.parse_case_table(path)
        assert per_cell == [7]
        assert (params, parsed) == parse_case_table_reference(path)
        assert params[1] not in parsed[5].values


class TestBpaSetFiles:
    def bpa(self):
        return BpaSet(
            ABC,
            {
                EvidenceItemId("P1", Region.BELOW): MassFunction.from_labels(
                    ABC, {("a",): 0.6, ABC.labels: 0.4}
                ),
                EvidenceItemId("P1", Region.ABOVE): MassFunction.vacuous(ABC),
            },
            method="2b",
            comments={EvidenceItemId("P1", Region.BELOW): "low albumin"},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "bpa.json"
        formats.write_bpa_set(self.bpa(), path)
        assert formats.read_bpa_set(path) == self.bpa()

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        formats.write_bpa_set(self.bpa(), a)
        formats.write_bpa_set(self.bpa(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_streamed_bytes_equal_one_shot_dump(self, tmp_path):
        path = tmp_path / "bpa.json"
        formats.write_bpa_set(self.bpa(), path)
        assert path.read_bytes() == (json.dumps(self.bpa().to_dict(), indent=2) + "\n").encode()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"frame": ["a"], "items": [{"parameter": "P"}]}')
        with pytest.raises(DataFormatError):
            formats.read_bpa_set(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(DataFormatError):
            formats.read_bpa_set(path)


class TestFrequencyTableFiles:
    def test_round_trip(self, tmp_path):
        intervals = ReferenceIntervals({"P1": (10.0, 20.0)})
        cases = [
            CaseRecord("c1", "a", {"P1": 5.0}),
            CaseRecord("c2", "b", {"P1": 15.0}),
        ]
        table = build_frequency_table(cases, intervals, ABC)
        path = tmp_path / "freq.json"
        formats.write_frequency_table(table, path)
        doc = json.loads(path.read_text())
        entries = {
            EvidenceItemId(raw["parameter"], Region(raw["class"])): FrequencyEntry(tuple(raw["counts"]))
            for raw in doc["items"]
        }
        assert FrequencyTable(Frame(tuple(doc["frame"])), entries) == table


# Text that json has to escape: quotes, backslashes, control characters and
# non-ASCII, including astral characters written as surrogate pairs.
_texts = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')),
    max_size=6,
)
_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan, -math.inf]))


@st.composite
def _reports(draw) -> EvaluationReport:
    labels = draw(st.lists(_texts.filter(bool), min_size=1, max_size=4, unique=True))
    unit = st.floats(0.0, 1.0)
    interval = st.one_of(
        st.builds(lambda a, b: BeliefInterval(min(a, b), max(a, b)), unit, unit),
        st.builds(BeliefInterval, _floats, _floats),
    )
    evidence = st.builds(EvidenceItemId, _texts, st.sampled_from(Region))
    # Traces of cases that combined to one mass function share one tuple.
    intervals = st.lists(interval, max_size=4).map(tuple)
    shared = draw(st.lists(intervals, min_size=1, max_size=3))
    trace = st.builds(
        CaseTrace,
        case_id=_texts,
        observed=st.just(0),
        expected=_texts,
        category=st.sampled_from(CATEGORIES),
        observed_labels=st.lists(st.sampled_from(labels), max_size=4).map(tuple),
        observed_mass=_floats,
        conflict=_floats,
        intervals=st.one_of(st.sampled_from(shared), intervals),
        evidence_used=st.lists(evidence, max_size=3).map(tuple),
    )
    return EvaluationReport(
        label=draw(_texts),
        frame=Frame(tuple(labels)),
        traces=tuple(draw(st.lists(trace, max_size=6))),
        errors=tuple(draw(st.lists(st.tuples(_texts, _texts), max_size=3))),
    )


# No traces, no errors, no percentages; then an all-vacuous trace with no
# evidence and a trace with non-finite floats, each interval tuple shared
# with a later trace whose other floats are finite or not.
_NO_TRACES = EvaluationReport(label="empty", frame=ABC, traces=(), errors=())
_VACUOUS = (BeliefInterval(0.0, 1.0),) * 3
_NON_FINITE = (BeliefInterval(-math.inf, math.nan), BeliefInterval(0.5, 0.5),
               BeliefInterval(-0.0, 1.0))
_VACUOUS_NON_FINITE = EvaluationReport(
    label="vacuous", frame=ABC,
    traces=(
        CaseTrace("c1", 0b111, ("a", "b", "c"), 1.0, 0.0, _VACUOUS, (), "a", CATEGORIES[1]),
        CaseTrace("c2", 0b010, ("b",), math.nan, math.inf, _NON_FINITE,
                  (EvidenceItemId("P1", Region.BELOW),), "b", CATEGORIES[0]),
        CaseTrace("c3", 0b111, ("a", "b", "c"), 1.0, math.nan, _VACUOUS, (), "c", CATEGORIES[1]),
        CaseTrace("c4", 0b010, ("b",), 0.5, 0.25, _NON_FINITE, (), "b", CATEGORIES[0]),
    ),
    errors=(),
)


@st.composite
def _program_reports(draw) -> EvaluationReport:
    """Reports the program could write: finite bounds in [0, 1], observed
    sets on the frame, each category the one its observed set earns, a
    positive observed mass and a conflict short of 1."""
    labels = draw(st.lists(_texts.filter(bool), min_size=1, max_size=4, unique=True))
    frame = Frame(tuple(labels))
    unit = st.floats(0.0, 1.0)
    interval = st.builds(lambda a, b: BeliefInterval(min(a, b), max(a, b)), unit, unit)
    evidence = st.builds(EvidenceItemId, _texts, st.sampled_from(Region))

    def trace(observed, expected):
        return st.builds(
            CaseTrace,
            case_id=_texts,
            observed=st.just(observed),
            observed_labels=st.just(frame.labels_of(observed)),
            observed_mass=st.floats(0.0, 1.0, exclude_min=True),
            conflict=st.floats(0.0, 1.0, exclude_max=True),
            intervals=st.lists(interval, min_size=frame.n, max_size=frame.n).map(tuple),
            evidence_used=st.lists(evidence, max_size=3).map(tuple),
            expected=st.just(expected),
            category=st.just(classify_match(observed, expected, frame)),
        )

    traces = st.tuples(st.integers(1, frame.full_mask), st.sampled_from(labels))
    return EvaluationReport(
        label=draw(_texts),
        frame=frame,
        traces=tuple(draw(st.lists(traces.flatmap(lambda pair: trace(*pair)), max_size=6))),
        errors=tuple(draw(st.lists(st.tuples(_texts, _texts), max_size=3))),
    )


def _set_interval(bounds):
    return lambda doc: doc["traces"][0]["intervals"].__setitem__(0, bounds)


def _set_trace(**fields):
    return lambda doc: doc["traces"][0].update(fields)


# Edits of the evaluated report (traces c1 -> {a} and c2 -> {b}, both PM; c3
# an error) that make it a report the program could not have written.
_REFUSED_EDITS = {
    "counts": (lambda doc: doc["counts"].update(PM=1, NM=1), "counts"),
    "total_cases": (lambda doc: doc.update(total_cases=2), "total_cases"),
    "evaluated": (lambda doc: doc.update(evaluated=3), "evaluated"),
    "percentages": (lambda doc: doc["percentages"].update(PM=50.0, NM=50.0), "percentages"),
    "category": (lambda doc: doc["traces"][0].update(category="NM"),
                 "category NM disagrees with its observed set"),
    "unknown-observed-label": (lambda doc: doc["traces"][0].update(observed=["z"]),
                               "unknown outcome label 'z'"),
    "non-finite-interval": (_set_interval([math.nan, 1.0]), "bounds must be finite"),
    "observed-mass-string": (_set_trace(observed_mass="abc"),
                             "observed_mass 'abc' is not a number in"),
    "observed-mass-bool": (_set_trace(observed_mass=True), "observed_mass True is not a number in"),
    "observed-mass-zero": (_set_trace(observed_mass=0.0), "observed_mass 0.0 is not a number in"),
    "observed-mass-above-one": (_set_trace(observed_mass=1.5),
                                "observed_mass 1.5 is not a number in"),
    "conflict-nan": (_set_trace(conflict=math.nan), "conflict nan is not a number in"),
    "conflict-one": (_set_trace(conflict=1.0), "conflict 1.0 is not a number in"),
    "conflict-negative": (_set_trace(conflict=-0.5), "conflict -0.5 is not a number in"),
    "conflict-infinite": (_set_trace(conflict=math.inf), "conflict inf is not a number in"),
    "intervals-short": (lambda doc: doc["traces"][0]["intervals"].pop(),
                        "2 intervals for a 3-outcome frame"),
    "intervals-long": (lambda doc: doc["traces"][0]["intervals"].append([0.0, 1.0]),
                       "4 intervals for a 3-outcome frame"),
    "observed-duplicate": (_set_trace(observed=["a", "a"]),
                           r"observed labels \['a', 'a'\] are not a set's labels in frame order"),
    "observed-out-of-order": (_set_trace(observed=["b", "a"]),
                              r"observed labels \['b', 'a'\] are not a set's labels in frame order"),
}


class TestReportFiles:
    def report(self):
        intervals = ReferenceIntervals({"P1": (10.0, 20.0)})
        cases = [
            CaseRecord("c1", "a", {"P1": 5.0}),
            CaseRecord("c2", "b", {"P1": 15.0}),
            CaseRecord("c3", "c", {}),
        ]
        table = build_frequency_table(cases[:2], intervals, ABC)
        bpa = extract_bpas(table, "2b")
        return evaluate_set(cases, bpa, intervals)

    def test_round_trip(self, tmp_path):
        report = self.report()
        path = tmp_path / "report.json"
        formats.write_report(report, path)
        assert formats.read_report(path) == report

    def edited(self, tmp_path, edit):
        """The evaluated report written to a file, with edit applied to its
        document; returns the edited file."""
        formats.write_report(self.report(), tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc, indent=2))
        return path

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=_program_reports())
    def test_program_shaped_reports_read_back_equal(self, tmp_path, report):
        path = tmp_path / "report.json"
        formats.write_report(report, path)
        assert formats.read_report(path) == report

    @pytest.mark.parametrize("name", sorted(_REFUSED_EDITS))
    def test_refuses_what_the_program_could_not_write(self, tmp_path, capsys, name):
        edit, message = _REFUSED_EDITS[name]
        path = self.edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: malformed report .*{message}"):
            formats.read_report(path)
        capsys.readouterr()
        assert main(["compare", "--report", str(path),
                     "--report", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed report")

    def test_interval_validation(self, tmp_path):
        for bounds in ([0.8, 0.2], [-0.5, 0.5]):
            with pytest.raises(DataFormatError, match="invalid belief interval"):
                formats.read_report(self.edited(tmp_path, _set_interval(bounds)))

    def test_computed_spill_reads_back(self, tmp_path):
        """A lone focus of a BPA file keeps a mass up to 1e-12 over 1, and
        reports written before the dense path clamped its conflict at 0 can
        hold one an ulp below 0, as {a,b}:0.8,{c}:0.2 with {b,c}:0.2,{a,c}:0.8
        gave; both read back as written."""
        conflict = -1.1102230246251565e-16
        path = self.edited(tmp_path, _set_trace(conflict=conflict, observed_mass=1.0 + 1e-12))
        trace = formats.read_report(path).traces[0]
        assert (trace.conflict, trace.observed_mass) == (conflict, 1.0 + 1e-12)

    def test_interval_spill_is_clipped_on_read(self, tmp_path):
        for bounds, expected in [([-1e-12, 0.5], (0.0, 0.5)), ([0.5, 0.5 - 1e-12], (0.5, 0.5)),
                                 ([1.0 + 4e-13, 1.0 + 4e-13], (1.0, 1.0))]:
            report = formats.read_report(self.edited(tmp_path, _set_interval(bounds)))
            assert report.traces[0].intervals[0] == expected

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(generated=_reports())
    @example(generated=None)
    @example(generated=_NO_TRACES)
    @example(generated=_VACUOUS_NON_FINITE)
    def test_streamed_bytes_equal_one_shot_dump(self, tmp_path, generated):
        """None stands for the evaluated report the other tests use."""
        report = self.report() if generated is None else generated
        path = tmp_path / "report.json"
        formats.write_report(report, path)
        expected = json.dumps(formats.report_to_dict(report), indent=2) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_table_rendering(self):
        report = self.report()
        text = formats.format_report_table([report, report])
        assert "PM" in text and "IM" in text and "NM" in text
        assert text.count(report.label) == 2

    def test_zero_base_renders_dashes(self):
        report = evaluate_set(
            [], extract_bpas(
                build_frequency_table(
                    [CaseRecord("c", "a", {"P1": 5.0})],
                    ReferenceIntervals({"P1": (10.0, 20.0)}),
                    ABC,
                ),
                "1",
            ),
            ReferenceIntervals({"P1": (10.0, 20.0)}),
        )
        assert "-" in formats.format_report_table([report])


class TestPruneFiles:
    def test_report_and_removal_list(self, tmp_path):
        matrix = CorrelationMatrix(("A", "B", "C"), {("A", "B"): 0.7})
        graph = build_graph(matrix, 0.5, Group.HEMATOLOGIC)
        result = prune_components(graph)
        report_path = tmp_path / "prune.json"
        list_path = tmp_path / "drop.txt"
        formats.write_prune_report(graph, result, report_path)
        formats.write_removal_list(result.removed, list_path)

        doc = json.loads(report_path.read_text())
        assert doc["group"] == "hematologic"
        assert doc["removed_all"] == ["B"]
        assert all("rule_applied" in comp for comp in doc["components"])
        assert formats.read_drop_params(list_path) == frozenset({"B"})

    def test_drop_params_skips_comments(self, tmp_path):
        path = tmp_path / "drop.txt"
        path.write_text("# removed by screening\nAALB\n\nAP\n")
        assert formats.read_drop_params(path) == frozenset({"AALB", "AP"})
