"""Benchmark of the sste pipeline: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-grid --seed 1 --seconds 36 --trace 0

Steps, each heavy one in its own process so the measured process gets only
the generated inputs:

1. prep (outside every metric): for the Yahoo!-shaped workload,
   ``yahoo_gen.py`` writes the two TSVs for the seed, once per seed;
2. passes: ``worker.py`` runs whole workload passes through
   ``sste.experiment.run_one``/``run_grid`` for ``--seconds`` (at least two
   passes; with ``--trace 1`` untraced and traced passes alternate, at least
   one of each). ``run_s`` is the median untraced pass time in reference
   seconds: wall time scaled by the host's speed as a fixed reference unit
   measures it while the pass runs (``refclock.py``), because the shared
   host slows the same code by up to 1.9 times for stretches as long as a
   run;
3. set-up (``--trace 0``): between those passes the worker starts at
   least seven fresh interpreters (more for a short set-up) that import
   sste and build the workload's first datasets; ``setup_s`` is the median
   of their times, scaled to reference seconds by the host-speed factor of
   the run's passes. Spreading the probes over the run keeps one slow
   stretch of the machine from moving all of them;
4. the correctness gate of ``checks.py`` counts failed runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines above it give the same figures by name with units, ``failed_frac``,
the run record (git rev, versions, BLAS, nproc, threads, seed) and, for the
Yahoo!-shaped workload, the generator's report (positive rates and fitted
constants). All of it is also written to
``.perfbench_work/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    """Environment of every child: the checkout's sources, at most nproc threads."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise subprocess.TimeoutExpired("benchmark", DEADLINE_S)
        return left


def _run(cmd: list[str], env: dict, deadline: Deadline) -> subprocess.CompletedProcess:
    """Run a child to completion in its own process group. On timeout the
    whole group (the child and any probe it started) is killed and the child
    reaped."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {child.returncode}: {err[-2000:]}")
    return subprocess.CompletedProcess(cmd, child.returncode, out, err)


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def record_info(seed: int, env: dict) -> dict:
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }


def yahoo_inputs(seed: int, env: dict, deadline: Deadline) -> tuple[Path, float, dict]:
    """(directory relative to the root, seconds spent, generator report) of
    the seed's TSVs.

    They are generated once per seed and generator version. The report holds
    the files' positive rates and the constants fitted to reach them.
    """
    version = hashlib.sha256((HERE / "yahoo_gen.py").read_bytes()).hexdigest()[:12]
    data_dir = (WORK / "inputs" / f"yahoo-{version}-seed{seed}").relative_to(ROOT)
    report = data_dir / "generator.json"
    if data_dir.is_dir():
        return data_dir, 0.0, json.loads(report.read_text(encoding="utf-8"))
    staging = data_dir.with_name(data_dir.name + ".partial")
    shutil.rmtree(staging, ignore_errors=True)
    started = time.perf_counter()
    done = _run([sys.executable, str(HERE / "yahoo_gen.py"), "--seed", str(seed),
                 "--out", str(staging)], env, deadline)
    (staging / report.name).write_text(done.stdout.strip().splitlines()[-1] + "\n",
                                       encoding="utf-8")
    staging.rename(data_dir)
    return data_dir, time.perf_counter() - started, json.loads(report.read_text(encoding="utf-8"))


def selected_auc(pass_dir: Path) -> float:
    """Test AUC of the selected run of each grid (rank 1), or of the lone run; mean."""
    runs = [
        board.parent / ("run-" + board.read_text(encoding="utf-8").splitlines()[1].split("\t")[1])
        for board in sorted(pass_dir.rglob("leaderboard.tsv"))
    ] or sorted(pass_dir.glob("run-*"))
    aucs = [
        json.loads((run / "report.json").read_text(encoding="utf-8"))["test_metrics"]["auc"]
        for run in runs
    ]
    return statistics.mean(aucs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "sste" / "__init__.py",
                   ROOT / "scripts" / "run_synthetic_study.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            return _fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)  # run configs name their input files relative to the root
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    deadline = Deadline(DEADLINE_S)
    env = _child_env()
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = [sys.executable, str(HERE / "worker.py")]

    prep_s, inputs = 0.0, {}
    data_dir = work.relative_to(ROOT) / "no-input-files"
    try:
        if workload.uses_files:
            data_dir, prep_s, inputs = yahoo_inputs(args.seed, env, deadline)
        common = ["--workload", workload.name, "--seed", str(args.seed), "--data", str(data_dir)]
        probes = 0 if args.trace else SETUP_PROBES
        _run(worker + ["passes"] + common + ["--work", str(work), "--seconds", str(args.seconds),
                                             "--trace", str(args.trace),
                                             "--setup-probes", str(probes)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    record = json.loads((work / "passes.json").read_text(encoding="utf-8"))
    setup = record["setup_s"]
    attempted, failed = checks.gate(
        work, record["pass_dirs"], workload.epochs, workload.runs_per_pass()
    )
    correct = failed == 0 and record["restored"]

    try:
        test_auc = selected_auc(work / record["pass_dirs"][0])
    except (OSError, LookupError, ValueError):
        test_auc = None  # a failed run left no report
    figures = {
        "setup_s": statistics.median(setup) if setup else None,
        "run_s": record["run_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "test_auc": test_auc,
    }
    if args.trace:
        figures = {
            name: statistics.median(layers[name] for layers in record["layers"])
            for name in record["layers"][0]
        }
        figures["trace_overhead_frac"] = (
            statistics.median(record["traced_s"]) / statistics.median(record["plain_s"]) - 1.0
        )
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if figures.get(m["name"]) is None]
    if missing:
        return _fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed}

    provenance = record_info(args.seed, env)
    info = dict(
        provenance, workload=workload.name, trace=args.trace, prep_s=prep_s, inputs=inputs,
        setup_samples_s=setup, setup_wall_s=record["setup_wall_s"],
        plain_pass_s=record["plain_s"], plain_pass_ref_s=record["plain_ref_s"],
        traced_pass_s=record["traced_s"],
        attempted=attempted, failed=failed, restored=record["restored"], metrics=metrics,
    )
    (work / "record.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    for name in record["pass_dirs"]:
        shutil.rmtree(work / name, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['plain_s'])} untraced + {len(record['traced_s'])} traced passes, "
          f"prep {prep_s:.2f} s (not a metric), median untraced pass "
          f"{statistics.median(record['plain_s']):.3f} s wall")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} frac ({failed}/{attempted} runs)")
    print("record: " + json.dumps(provenance, sort_keys=True))
    if inputs:
        print("inputs: " + json.dumps(inputs, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
