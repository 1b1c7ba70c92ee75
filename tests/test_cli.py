import json
import warnings
from dataclasses import fields, replace

import pytest

from evidential.cli import build_parser, main
from evidential import extract, formats
from evidential.evaluate import MatchCategory
from evidential.pipeline import PipelineConfig, run_pipeline
from evidential.synth import SynthConfig


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(
        "synth", "--outcomes", "5", "--params", "6", "--cases", "120",
        "--seed", "11", "--separation", "1.5", "--holdout", "20",
        "--out-dir", str(out),
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_expected_files(self, dataset):
        for name in ("cases.csv", "intervals.csv", "meta.json", "train.csv", "test.csv"):
            assert (dataset / name).exists()

    def test_deterministic(self, tmp_path):
        args = [
            "synth", "--outcomes", "4", "--params", "3", "--cases", "30",
            "--seed", "5", "--separation", "1.0",
        ]
        assert run(*args, "--out-dir", str(tmp_path / "one")) == 0
        assert run(*args, "--out-dir", str(tmp_path / "two")) == 0
        assert (tmp_path / "one" / "cases.csv").read_bytes() == (
            tmp_path / "two" / "cases.csv"
        ).read_bytes()

    def test_split_sizes(self, dataset):
        assert len(formats.parse_cases(dataset / "train.csv")) == 100
        assert len(formats.parse_cases(dataset / "test.csv")) == 20


class TestExtractEvaluate:
    def test_extract_all_methods(self, dataset, tmp_path):
        for method in ("1", "2a", "2b", "3"):
            out = tmp_path / f"bpa{method}.json"
            code = run(
                "extract", "--cases", str(dataset / "train.csv"),
                "--intervals", str(dataset / "intervals.csv"),
                "--method", method, "--out", str(out),
            )
            assert code == 0
            bpa = formats.read_bpa_set(out)
            assert bpa.method == method

    def test_m3_variant_recorded(self, dataset, tmp_path):
        out = tmp_path / "bpa.json"
        code = run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "3", "--m3-variant", "size-zero", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["variant"] == "size-zero"

    def test_evaluate_writes_report(self, dataset, tmp_path, capsys):
        bpa_path = tmp_path / "bpa.json"
        run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "2a", "--out", str(bpa_path),
        )
        report_path = tmp_path / "report.json"
        code = run(
            "evaluate", "--bpa", str(bpa_path), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--out", str(report_path),
        )
        assert code == 0
        report = formats.read_report(report_path)
        assert report.total_cases == 20
        assert "PM" in capsys.readouterr().out

    def test_diagnose_prints_intervals(self, dataset, tmp_path, capsys):
        bpa_path = tmp_path / "bpa.json"
        run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "2b", "--out", str(bpa_path),
        )
        code = run(
            "diagnose", "--bpa", str(bpa_path), "--case", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plausibility" in out
        assert "g01" in out


class TestDropParams:
    @pytest.mark.parametrize("command", ["evaluate", "diagnose", "pipeline"])
    def test_unknown_names_warned_once(self, dataset, tmp_path, capsys, command):
        test, intervals = str(dataset / "test.csv"), str(dataset / "intervals.csv")
        if command == "pipeline":
            argv = ["pipeline", "--train", str(dataset / "train.csv"), "--test", test,
                    "--out-dir", str(tmp_path / "out")]
        else:
            bpa = str(tmp_path / "bpa.json")
            assert run("extract", "--cases", str(dataset / "train.csv"), "--intervals", intervals,
                       "--method", "2b", "--out", bpa) == 0
            argv = ["evaluate", "--bpa", bpa, "--test", test, "--out", str(tmp_path / "r.json")]
            if command == "diagnose":
                argv = ["diagnose", "--bpa", bpa, "--case", test]
        drop = tmp_path / "drop.txt"
        drop.write_text("# removal list\nP01\nNOPE\nALSO_NOPE\nNOPE\n")
        with pytest.warns(UserWarning) as record:
            code = run(*argv, "--intervals", intervals, "--drop-params", str(drop))
        assert code == 0
        assert [str(w.message) for w in record if "no such parameter" in str(w.message)] == [
            f"{drop}: no such parameter in the case table, nothing dropped for 'ALSO_NOPE', 'NOPE'"
        ]
        drop.write_text("P01\nP02\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--intervals", intervals, "--drop-params", str(drop)) == 0
        capsys.readouterr()


class TestModify:
    def test_part_modification(self, dataset, tmp_path):
        bpa_path = tmp_path / "bpa.json"
        run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "2a", "--out", str(bpa_path),
        )
        bpa = formats.read_bpa_set(bpa_path)
        item = sorted(bpa.entries)[0]
        expert_doc = {
            "method": "expert",
            "frame": list(bpa.frame.labels),
            "items": [
                {
                    "parameter": item.parameter,
                    "class": item.region.value,
                    "focal": [{"subset": [bpa.frame.labels[0]], "mass": 1.0}],
                    "comment": "always the first group",
                }
            ],
        }
        expert_path = tmp_path / "expert.json"
        expert_path.write_text(json.dumps(expert_doc))
        out_path = tmp_path / "modified.json"
        code = run(
            "modify", "--bpa", str(bpa_path), "--expert", str(expert_path),
            "--mode", "part", "--out", str(out_path),
        )
        assert code == 0
        modified = formats.read_bpa_set(out_path)
        assert modified.entries[item].mass(bpa.frame.bit(bpa.frame.labels[0])) == 1.0
        assert modified.method == "2a+part"


class TestPrune:
    def test_prune_outputs(self, tmp_path):
        rows = ["case_id,outcome,A,B,C"]
        for i in range(20):
            rows.append(f"c{i},x,{i},{2 * i + 1},{50 - 3 * i}")
        cases_path = tmp_path / "cases.csv"
        cases_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "prune.json"
        code = run(
            "prune", "--cases", str(cases_path), "--group", "biochem",
            "--threshold", "0.5", "--min-pairs", "10", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["group"] == "biochem"
        # A, B, C are all exactly linear in each other: one triangle, keep one
        assert len(doc["removed_all"]) == 2
        removal = formats.read_drop_params(f"{out}.params.txt")
        assert removal == set(doc["removed_all"])


class TestCompare:
    def test_compare_reports(self, dataset, tmp_path, capsys):
        reports = [self._report(dataset, tmp_path, method) for method in ("2a", "1")]
        capsys.readouterr()
        code = run("compare", "--report", reports[0], "--report", reports[1])
        out = capsys.readouterr().out
        assert code == 0
        assert "McNemar" in out or "no discordant" in out

    def test_compare_with_paired_file(self, dataset, tmp_path, capsys):
        report_path = self._report(dataset, tmp_path)
        paired = tmp_path / "paired.csv"
        paired.write_text(
            "case_id,category_a,category_b\n"
            + "".join(f"x{i},PM,NM\n" for i in range(10))
        )
        capsys.readouterr()
        code = run(
            "compare", "--report", report_path, "--report", report_path, "--paired", str(paired),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PM only under A = 10" in out

    def test_compare_counts_errors_as_not_pm(self, dataset, tmp_path, capsys):
        path_a, path_b = self._report(dataset, tmp_path), tmp_path / "b_report.json"
        # B lists as errors three cases that A diagnosed as PM
        report = formats.read_report(path_a)
        failed = [t for t in report.traces if t.category == MatchCategory.PM][:3]
        assert len(failed) == 3
        formats.write_report(
            replace(
                report,
                label="B",
                traces=tuple(t for t in report.traces if t not in failed),
                errors=report.errors + tuple((t.case_id, "total conflict") for t in failed),
            ),
            path_b,
        )
        capsys.readouterr()
        code = run("compare", "--report", path_a, "--report", str(path_b))
        out = capsys.readouterr().out
        assert code == 0
        assert "PM only under A = 3, PM only under B = 0" in out

    @pytest.mark.parametrize("rows, line", [
        (["x1,PM,banana", "x2,NM,NM"], 2),
        (["x1,PM,NM", "x2,pm,NM"], 3),
        (["x1,PM,NM", "x2,NM,NM", "x1,NM,NM"], 4),
        (["x1,PM,NM", "x2,NM"], 3),
    ], ids=["unknown-category", "lower-case-category", "repeated-case", "short-row"])
    def test_compare_refuses_bad_paired_file(self, dataset, tmp_path, capsys, rows, line):
        report = self._report(dataset, tmp_path)
        paired = tmp_path / "paired.csv"
        paired.write_text("case_id,category_a,category_b\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert run("compare", "--report", report, "--report", report,
                   "--paired", str(paired)) == 2
        assert f"{paired}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["5.0", "1", "0", "-0.05"])
    def test_compare_refuses_alpha_outside_unit_interval(self, dataset, tmp_path, capsys, alpha):
        report = self._report(dataset, tmp_path)
        capsys.readouterr()
        assert run("compare", "--report", report, "--report", report, "--alpha", alpha) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err

    @staticmethod
    def _report(dataset, tmp_path, method="2a"):
        """Extract with method, evaluate on the test cases; the report's path."""
        bpa_path, report_path = tmp_path / f"bpa{method}.json", tmp_path / f"report{method}.json"
        assert run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", method, "--out", str(bpa_path),
        ) == 0
        assert run(
            "evaluate", "--bpa", str(bpa_path), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--out", str(report_path),
        ) == 0
        return str(report_path)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run("extract", "--cases", "x.csv") == 1
        assert run("no-such-command") == 1

    def test_data_error_missing_file(self, tmp_path):
        assert run(
            "extract", "--cases", str(tmp_path / "absent.csv"),
            "--intervals", str(tmp_path / "absent2.csv"),
            "--method", "1", "--out", str(tmp_path / "o.json"),
        ) == 2

    def test_data_error_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,outcome\n")
        assert run(
            "extract", "--cases", str(bad), "--intervals", str(bad),
            "--method", "1", "--out", str(tmp_path / "o.json"),
        ) == 2

    @pytest.mark.parametrize("name", ["", " P1", "P1 ", "#P1", "P\n1"])
    def test_data_error_parameter_name(self, tmp_path, capsys, name):
        # names a removal list would not read back as written
        bad = tmp_path / "bad.csv"
        bad.write_text(f'case_id,outcome,"{name}",P2\nc1,a,1.0,2.0\n')
        assert run(
            "extract", "--cases", str(bad), "--intervals", str(bad),
            "--method", "1", "--out", str(tmp_path / "o.json"),
        ) == 2
        assert f"{bad}: parameter name {name!r} must be" in capsys.readouterr().err

    def test_data_error_auto_prune_with_drop_params(self, dataset, tmp_path):
        assert run(
            "pipeline", "--train", str(dataset / "train.csv"), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--auto-prune",
            "--drop-params", str(tmp_path / "drop.txt"), "--out-dir", str(tmp_path / "o"),
        ) == 2
        with pytest.raises(ValueError, match="not both"):
            PipelineConfig(auto_prune=True, drop_params="drop.txt")

    def test_data_error_nan_mass(self, dataset, tmp_path, capsys):
        bpa_path = tmp_path / "bpa.json"
        assert run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "2b", "--out", str(bpa_path),
        ) == 0
        doc = json.loads(bpa_path.read_text())
        doc["items"][0]["focal"][0]["mass"] = float("nan")
        bpa_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(
            "evaluate", "--bpa", str(bpa_path), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--out", str(tmp_path / "r.json"),
        ) == 2
        assert "masses sum to nan" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_data_error_method3_over_budget(self, tmp_path, capsys, monkeypatch):
        # 16 outcomes, so 65 535 foci per entry; 8 parameters give at least 17 entries
        data = tmp_path / "data"
        assert run("synth", "--outcomes", "16", "--params", "8", "--cases", "160",
                   "--seed", "1", "--out-dir", str(data)) == 0

        def unbuilt(frame, freq, variant):
            raise AssertionError("a method-3 entry was built")

        monkeypatch.setitem(extract._BUILDERS, "3", unbuilt)
        capsys.readouterr()
        out = tmp_path / "bpa.json"
        assert run("extract", "--cases", str(data / "cases.csv"),
                   "--intervals", str(data / "intervals.csv"),
                   "--method", "3", "--out", str(out)) == 2
        assert "over the budget of 1048576" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_error_total_conflict(self, tmp_path):
        frame = ["a", "b"]
        doc = {
            "method": "manual",
            "frame": frame,
            "items": [
                {"parameter": "P1", "class": "below",
                 "focal": [{"subset": ["a"], "mass": 1.0}]},
                {"parameter": "P2", "class": "below",
                 "focal": [{"subset": ["b"], "mass": 1.0}]},
            ],
        }
        bpa_path = tmp_path / "bpa.json"
        bpa_path.write_text(json.dumps(doc))
        cases = tmp_path / "case.csv"
        cases.write_text("case_id,outcome,P1,P2\nc1,a,1.0,1.0\n")
        intervals = tmp_path / "intervals.csv"
        intervals.write_text("parameter,low,high\nP1,5,10\nP2,5,10\n")
        assert run(
            "diagnose", "--bpa", str(bpa_path), "--case", str(cases),
            "--intervals", str(intervals),
        ) == 3


class TestBothViewsAgree:
    """A stage subcommand and `pipeline` refuse the same setting or input
    with the same exit code and message."""

    def pipeline(self, dataset, tmp_path, capsys, *flags):
        capsys.readouterr()
        code = run(
            "pipeline", "--train", str(dataset / "train.csv"), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), *flags,
            "--out-dir", str(tmp_path / "pipe"),
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_min_support_below_one(self, dataset, tmp_path, capsys, value):
        capsys.readouterr()
        assert run(
            "extract", "--cases", str(dataset / "train.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--method", "2a",
            "--min-support", value, "--out", str(tmp_path / "bpa.json"),
        ) == 2
        stage_err = capsys.readouterr().err
        assert not (tmp_path / "bpa.json").exists()
        assert "min_support must be at least 1" in stage_err
        assert self.pipeline(dataset, tmp_path, capsys, "--min-support", value) == (2, stage_err)

    @pytest.mark.parametrize("value", ["1", "0"])
    def test_min_pairs_below_two(self, dataset, tmp_path, capsys, value):
        capsys.readouterr()
        assert run(
            "prune", "--cases", str(dataset / "train.csv"), "--group", "biochem",
            "--min-pairs", value, "--out", str(tmp_path / "prune.json"),
        ) == 2
        stage_err = capsys.readouterr().err
        assert not (tmp_path / "prune.json").exists()
        assert "min_pairs must be at least 2" in stage_err
        code, err = self.pipeline(dataset, tmp_path, capsys, "--auto-prune", "--min-pairs", value)
        assert (code, err) == (2, stage_err)

    @pytest.mark.parametrize("value", ["0", "1.5"])
    def test_threshold_outside_unit_interval(self, dataset, tmp_path, capsys, value):
        capsys.readouterr()
        assert run(
            "prune", "--cases", str(dataset / "train.csv"), "--group", "biochem",
            "--threshold", value, "--out", str(tmp_path / "prune.json"),
        ) == 2
        stage_err = capsys.readouterr().err
        assert not (tmp_path / "prune.json").exists()
        assert f"threshold must be in (0, 1], got {float(value)}" in stage_err
        code, err = self.pipeline(dataset, tmp_path, capsys, "--auto-prune", "--threshold", value)
        assert (code, err) == (2, stage_err)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_value(self, dataset, tmp_path, capsys, bad):
        lines = (dataset / "train.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        row[2] = bad
        train = tmp_path / "train.csv"
        train.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        capsys.readouterr()
        assert run(
            "prune", "--cases", str(train), "--group", "biochem",
            "--out", str(tmp_path / "prune.json"),
        ) == 2
        assert f"case {row[0]}: non-finite value {float(bad)} for {header[2]}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "prune.json").exists()
        code = run(
            "pipeline", "--train", str(train), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--auto-prune",
            "--out-dir", str(tmp_path / "pipe"),
        )
        assert code == 2
        capsys.readouterr()
        code = run(
            "pipeline", "--train", str(train), "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"), "--out-dir", str(tmp_path / "plain"),
        )
        assert code == 2
        assert (f"stage 'frequency' failed: case {row[0]}: non-finite value {float(bad)} "
                f"for {header[2]}") in capsys.readouterr().err

    def test_expert_table_on_another_frame(self, dataset, tmp_path, capsys):
        expert = tmp_path / "expert.json"
        expert.write_text(json.dumps({"method": "expert", "frame": ["x", "y"], "items": [
            {"parameter": "P01", "class": "below", "focal": [{"subset": ["x"], "mass": 1.0}]},
        ]}))
        bpa = tmp_path / "bpa.json"
        assert run("extract", "--cases", str(dataset / "train.csv"),
                   "--intervals", str(dataset / "intervals.csv"), "--method", "2a",
                   "--out", str(bpa)) == 0
        capsys.readouterr()
        assert run("modify", "--bpa", str(bpa), "--expert", str(expert), "--mode", "part",
                   "--out", str(tmp_path / "modified.json")) == 2
        stage_err = capsys.readouterr().err
        assert stage_err.startswith("error: ")
        code, err = self.pipeline(dataset, tmp_path, capsys,
                                  "--expert", str(expert), "--expert-mode", "part")
        assert (code, err) == (2, stage_err.replace("error: ", "error: stage 'expert' failed: "))


# the required flags of each subcommand that builds a config, and that config
CONFIG_COMMANDS = {
    "synth": (SynthConfig, ["--out-dir", "o"]),
    "extract": (PipelineConfig, ["--cases", "c", "--intervals", "i", "--method", "1",
                                 "--out", "o"]),
    "prune": (PipelineConfig, ["--cases", "c", "--group", "biochem", "--out", "o"]),
    "pipeline": (PipelineConfig, ["--train", "t", "--test", "e", "--intervals", "i",
                                  "--out-dir", "o"]),
}
DEFAULTED_FIELDS = {
    "synth": {f.name for f in fields(SynthConfig)},
    "extract": {"m3_variant", "min_support"},
    "prune": {"threshold", "min_pairs"},
    "pipeline": {f.name for f in fields(PipelineConfig)},
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_flag_defaults_are_the_config_defaults(command):
    cls, required = CONFIG_COMMANDS[command]
    args = build_parser().parse_args([command, *required])
    defaulted = {
        f.name for f in fields(cls)
        if hasattr(args, f.name) and f"--{f.name.replace('_', '-')}" not in required
    }
    assert defaulted == DEFAULTED_FIELDS[command]
    for name in defaulted:
        assert getattr(args, name) == getattr(cls(), name), name


class TestPipeline:
    def test_end_to_end_and_reproducible(self, dataset, tmp_path):
        args = [
            "pipeline", "--train", str(dataset / "train.csv"),
            "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--method", "2a",
        ]
        assert run(*args, "--out-dir", str(tmp_path / "one")) == 0
        assert run(*args, "--out-dir", str(tmp_path / "two")) == 0
        one = (tmp_path / "one" / "report.json").read_bytes()
        two = (tmp_path / "two" / "report.json").read_bytes()
        assert one == two
        for artifact in ("frequency_table.json", "bpa.json", "report.json", "report.txt"):
            assert (tmp_path / "one" / artifact).exists()

    def test_rerun_downstream_from_artifact_matches(self, dataset, tmp_path):
        out_dir = tmp_path / "pipe"
        config = PipelineConfig(method="2b")
        run_pipeline(
            config,
            dataset / "train.csv",
            dataset / "test.csv",
            dataset / "intervals.csv",
            out_dir=out_dir,
        )
        # re-run the evaluation stage alone from the written BPA artifact
        report_path = tmp_path / "re-report.json"
        code = run(
            "evaluate", "--bpa", str(out_dir / "bpa.json"),
            "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--out", str(report_path),
        )
        assert code == 0
        assert report_path.read_bytes() == (out_dir / "report.json").read_bytes()

    def test_auto_prune_writes_artifacts(self, dataset, tmp_path):
        out_dir = tmp_path / "pruned"
        code = run(
            "pipeline", "--train", str(dataset / "train.csv"),
            "--test", str(dataset / "test.csv"),
            "--intervals", str(dataset / "intervals.csv"),
            "--auto-prune", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "prune_report.json").exists()
        assert (out_dir / "dropped_params.txt").exists()


class TestExpertFlags:
    """An expert table is given exactly when an expert mode is set; anything
    else is refused before the output directory is made or any input read."""

    @pytest.mark.parametrize("mode, with_table", [("none", True), ("part", False)])
    def test_table_and_mode_go_together(self, dataset, tmp_path, capsys, mode, with_table):
        expert = str(_expert_table(dataset / "train.csv", tmp_path / "expert.json"))
        expert_path = expert if with_table else None
        paths = [str(dataset / name) for name in ("train.csv", "test.csv", "intervals.csv")]
        out_dir = tmp_path / "pipe"
        flags = ["--expert-mode", mode] + (["--expert", expert] if with_table else [])
        assert run("pipeline", "--train", paths[0], "--test", paths[1], "--intervals", paths[2],
                   *flags, "--out-dir", str(out_dir)) == 2
        assert "expert" in capsys.readouterr().err
        with pytest.raises(ValueError, match="expert"):
            run_pipeline(PipelineConfig(expert_mode=mode), *paths, expert_path, out_dir)
        assert not out_dir.exists()


def _expert_table(train_csv, path):
    """An expert opinion on two parameters, over the training cases' labels."""
    labels = sorted({case.outcome for case in formats.parse_cases(train_csv)})
    items = [
        {"parameter": param, "class": region,
         "focal": [{"subset": [labels[0]], "mass": 0.6}, {"subset": labels, "mass": 0.4}]}
        for param in ("P01", "P02") for region in ("below", "above")
    ]
    path.write_text(json.dumps({"method": "expert", "frame": labels, "items": items}))
    return path


def _with_extra_rows(test_csv, path, extra):
    """Copy of test_csv plus rows cloned from its first data rows: each extra
    entry is (case_id, outcome, value of the first parameter or None to keep)."""
    lines = test_csv.read_text().splitlines()
    rows = []
    for (case_id, outcome, first), source in zip(extra, lines[1:]):
        cells = source.split(",")
        cells[:2] = [case_id, outcome]
        if first is not None:
            cells[2] = first
        rows.append(",".join(cells))
    path.write_text("\n".join(lines + rows) + "\n")
    return path


# (extract flags, expert mode or None, auto-prune, a test case with a label
# absent from training)
STAGE_CONFIGS = {
    "2b-expert-part-auto-prune": (["--method", "2b"], "part", True, False),
    "3-size-zero-expert-all": (["--method", "3", "--m3-variant", "size-zero"], "all", False, False),
    "unseen-test-label": (["--method", "2a"], None, False, True),
}


class TestStageByStage:
    @pytest.mark.parametrize("name", sorted(STAGE_CONFIGS))
    def test_cli_stages_match_pipeline_byte_for_byte(self, dataset, tmp_path, capsys, name):
        extract_flags, mode, auto_prune, unseen = STAGE_CONFIGS[name]
        train, intervals = str(dataset / "train.csv"), str(dataset / "intervals.csv")
        test = dataset / "test.csv"
        if unseen:
            test = _with_extra_rows(test, tmp_path / "test.csv", [("u1", "zz", None)])
        expert = str(_expert_table(dataset / "train.csv", tmp_path / "expert.json"))
        pipe, stages = tmp_path / "pipeline", tmp_path / "stages"
        stages.mkdir()

        argv = ["pipeline", "--train", train, "--test", str(test), "--intervals", intervals,
                *extract_flags, "--out-dir", str(pipe)]
        if mode:
            argv += ["--expert", expert, "--expert-mode", mode]
        if auto_prune:
            argv += ["--auto-prune"]
        assert run(*argv) == 0

        bpa = str(stages / "bpa.json")
        assert run("extract", "--cases", train, "--intervals", intervals, *extract_flags,
                   "--out", bpa) == 0
        if mode:
            assert run("modify", "--bpa", bpa, "--expert", expert, "--mode", mode,
                       "--out", str(stages / "bpa_modified.json")) == 0
            bpa = str(stages / "bpa_modified.json")
        drop = []
        if auto_prune:
            assert run("prune", "--cases", train, "--group", "biochem",
                       "--out", str(stages / "prune_report.json"),
                       "--removal-out", str(stages / "dropped_params.txt")) == 0
            drop = ["--drop-params", str(stages / "dropped_params.txt")]
        capsys.readouterr()
        assert run("evaluate", "--bpa", bpa, "--test", str(test), "--intervals", intervals,
                   *drop, "--out", str(stages / "report.json")) == 0
        printed = capsys.readouterr().out

        staged = sorted(p.name for p in stages.iterdir())
        assert staged == sorted(
            p.name for p in pipe.iterdir() if p.name not in ("frequency_table.json", "report.txt")
        )
        for artifact in staged:
            assert (stages / artifact).read_bytes() == (pipe / artifact).read_bytes(), artifact
        assert printed == (pipe / "report.txt").read_text()


class TestBadCases:
    def test_unseen_label_and_nan_are_per_case_errors(self, dataset, tmp_path, capsys):
        intervals = str(dataset / "intervals.csv")
        clean = dataset / "test.csv"
        bad = _with_extra_rows(
            clean, tmp_path / "bad.csv", [("u1", "zz", None), ("n1", "g01", "nan")]
        )
        pipe = tmp_path / "pipe"
        assert run("pipeline", "--train", str(dataset / "train.csv"), "--test", str(bad),
                   "--intervals", intervals, "--method", "2b", "--out-dir", str(pipe)) == 0
        bpa = str(pipe / "bpa.json")
        reports = {}
        for name, test in (("clean", clean), ("bad", bad)):
            reports[name] = tmp_path / f"{name}.json"
            assert run("evaluate", "--bpa", bpa, "--test", str(test), "--intervals", intervals,
                       "--out", str(reports[name])) == 0
        assert (pipe / "report.json").read_bytes() == reports["bad"].read_bytes()

        clean_doc = json.loads(reports["clean"].read_text())
        bad_doc = json.loads(reports["bad"].read_text())
        assert bad_doc["traces"] == clean_doc["traces"]
        assert bad_doc["errors"][: len(clean_doc["errors"])] == clean_doc["errors"]
        extra = dict(bad_doc["errors"][len(clean_doc["errors"]):])
        assert sorted(extra) == ["n1", "u1"]
        assert "zz" in extra["u1"] and "nan" in extra["n1"]

        capsys.readouterr()
        assert run("diagnose", "--bpa", bpa, "--case", str(bad), "--intervals", intervals) == 0
        err = capsys.readouterr().err
        assert "case u1: FAILED" not in err  # diagnosis needs no ground truth
        assert "case n1: FAILED" in err
