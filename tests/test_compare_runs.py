"""scripts/compare_runs.py: byte-for-byte comparison of two run trees."""

import subprocess
import sys
from pathlib import Path

import pytest

from compare_runs import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"
RUN = "seed1/naive/run-0123456789abcdef"


def write_tree(root: Path, out_dir: str, elapsed: str) -> Path:
    run = root / RUN
    run.mkdir(parents=True)
    (run / "config.txt").write_text(f"seed = 1\nout_dir = {out_dir}\nndcg_k = 50\n")
    (run / "report.json").write_text('{"auc": 0.6}\n')
    (run / "model.ckpt").write_bytes(bytes(range(16)))
    (run / "status.json").write_text(f'{{"elapsed_seconds": {elapsed}}}\n')
    (root / "summary.tsv").write_text("seed\tmargin\n1\t+0.001241\n")
    return run


class TestCompareRuns:
    def test_trees_that_differ_only_in_status_and_out_dir_match(self, tmp_path, capsys):
        write_tree(tmp_path / "a", "runs/a", "1.5")
        write_tree(tmp_path / "b", "runs/b", "0.7")
        assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 of 4 files differ"]

    def test_every_differing_file_is_listed(self, tmp_path, capsys):
        write_tree(tmp_path / "a", "runs/a", "1.5")
        run_b = write_tree(tmp_path / "b", "runs/b", "1.5")
        (run_b / "model.ckpt").write_bytes(bytes(range(1, 17)))
        (run_b / "config.txt").write_text("seed = 2\nout_dir = runs/b\nndcg_k = 50\n")
        (run_b / "report.json").unlink()
        (tmp_path / "b" / "extra.txt").write_text("x")
        assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "extra.txt: only in B",
            f"{RUN}/config.txt: differs",
            f"{RUN}/model.ckpt: differs",
            f"{RUN}/report.json: only in A",
            "4 of 5 files differ",
        ]

    def test_a_missing_tree_is_an_error(self, tmp_path, capsys):
        write_tree(tmp_path / "a", "runs/a", "1.5")
        assert main([str(tmp_path / "a"), str(tmp_path / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("changed, code", [(False, 0), (True, 1)])
    def test_the_script_exits_with_the_comparison(self, tmp_path, changed, code):
        write_tree(tmp_path / "a", "runs/a", "1.5")
        run_b = write_tree(tmp_path / "b", "runs/b", "1.5")
        if changed:
            (run_b / "report.json").write_text('{"auc": 0.7}\n')
        done = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path / "a"), str(tmp_path / "b")],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code
