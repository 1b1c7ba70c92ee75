import runpy
import sys
from pathlib import Path

from evidential import formats

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_experiment.py"


def test_synthetic_experiment_smoke(tmp_path, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    monkeypatch.setattr(sys, "argv", [
        SCRIPT.name, "--outcomes", "4", "--params", "5", "--cases", "60",
        "--holdout", "20", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    main()
    out = capsys.readouterr().out
    assert "4 outcomes, 5 parameters, 40 train / 20 test cases" in out
    assert out.count(" vs ") == 6  # every pair of the four methods
    reports = sorted(tmp_path.glob("report_*.json"))
    assert [p.name for p in reports] == [
        "report_1.json", "report_2a.json", "report_2b.json", "report_3_global-one.json"
    ]
    for path in reports:
        assert formats.read_report(path).total_cases == 20
