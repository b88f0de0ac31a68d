import json
import shutil
from pathlib import Path

import checks

from sste import experiment


def test_oracle_agrees_with_the_package_and_catches_a_changed_metric(tiny_config):
    result = experiment.run_one(tiny_config)
    assert result.status == "ok"
    run_dir = Path(result.run_dir)
    assert checks.oracle_agrees(run_dir, {})

    report_path = run_dir / "report.json"
    report = json.loads(report_path.read_text())
    report["test_metrics"]["p@5"] += 1e-6
    report_path.write_text(json.dumps(report))
    assert not checks.oracle_agrees(run_dir, {})


def test_gate_counts_runs_that_differ_between_passes(tiny_config, tmp_path):
    work = tmp_path / "work"
    for name in ("pass-0", "pass-1"):
        experiment.run_one(tiny_config)
        shutil.move(tiny_config.out_dir, work / name)
    assert checks.gate(work, ["pass-0", "pass-1"], epochs=2, runs_per_pass=1) == (2, 0)

    (next((work / "pass-1").glob("run-*")) / "epochs.jsonl").write_text("{}\n")
    assert checks.gate(work, ["pass-0", "pass-1"], epochs=2, runs_per_pass=1) == (2, 1)
    assert checks.gate(work, ["pass-0", "pass-1"], epochs=2, runs_per_pass=2) == (4, 3)
