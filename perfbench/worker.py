"""The measured process: set-up probes and timed workload passes.

``setup`` builds one workload's first datasets and propensity table in a
fresh interpreter and prints ``time.monotonic()`` when done; the caller
subtracts its own reading from before the spawn (CLOCK_MONOTONIC is one
clock for every process on Linux).

``passes`` runs whole passes of a workload into the same output directory,
moving each finished pass to ``pass-<n>`` so that the config files, which
name the output directory, stay comparable byte for byte. Untraced passes
are timed by a ``RefClock``, in wall and reference seconds; traced passes
in wall seconds only, since the clock's pauses would fall inside spans.
Without tracing
it repeats passes until they have taken ``--seconds``, at least two. With
tracing it alternates an untraced and a traced pass, at least one of each.
Between passes it starts set-up probes, at least ``--setup-probes`` of
them and enough to take ``SETUP_MIN_S`` seconds together, spread in
proportion to the pass time gone by; a short set-up thus gets more samples. Their wall times are scaled to
reference seconds by the run's host-speed factor, the reference seconds
per wall second of its untraced passes: a reference unit timed around one
probe of a second or two is too noisy a gauge, while the passes time it at
every cut. It writes a JSON record of pass times,
set-up times (reference seconds), peak RSS (of this process only) and per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, datasets  # first: puts the checkout's src on sys.path

import refclock
import spans
from sste.propensity import estimate_popularity_propensity


def setup(workload, seed: int, data_dir: str) -> None:
    cfg = workload.configs(seed, "unused", data_dir)[-1]
    train, _, _ = datasets(cfg)
    estimate_popularity_propensity(train, gamma=cfg.gamma, floor=cfg.floor)
    print(repr(time.monotonic()), flush=True)


_PROBE_TIMEOUT_S = 60.0
SETUP_MIN_S = 6.0


def _setup_probe(workload, seed: int, data_dir: str) -> float:
    """Seconds from spawning a fresh set-up interpreter to its datasets being built."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", workload.name, "--seed", str(seed),
         "--data", data_dir],
        capture_output=True, text=True, timeout=_PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1]) - started


def _plain_pass(workload, seed: int, data_dir: str, work: Path, label: str):
    """(wall seconds, reference seconds) of one untraced pass."""
    live = work / "live"
    with refclock.RefClock() as clock:
        workload.run_pass(seed, str(live), data_dir)
    live.rename(work / label)
    return clock.wall_s, clock.ref_s


def _traced_pass(workload, seed: int, data_dir: str, work: Path, label: str):
    """(wall seconds, tracer) of one traced pass."""
    live = work / "live"
    with spans.Tracer() as tracer:
        started = time.perf_counter()
        workload.run_pass(seed, str(live), data_dir)
        elapsed = time.perf_counter() - started
    live.rename(work / label)
    return elapsed, tracer


def passes(workload, seed: int, data_dir: str, work: Path, seconds: float, trace: bool,
           setup_probes: int) -> dict:
    record = {"plain_s": [], "plain_ref_s": [], "traced_s": [], "pass_dirs": [], "layers": [],
              "setup_wall_s": []}
    originals, hooked = spans.bound_objects(), refclock.bound_objects()

    def probe_up_to(share: float) -> None:
        if not setup_probes:
            return
        share = min(share, 1.0)
        done = record["setup_wall_s"]
        while (len(done) < max(1, math.ceil(setup_probes * share))
               or sum(done) < SETUP_MIN_S * share):
            done.append(_setup_probe(workload, seed, data_dir))

    while True:
        probe_up_to(sum(record["plain_s"] + record["traced_s"]) / seconds)
        label = f"pass-{len(record['pass_dirs'])}"
        wall_s, ref_s = _plain_pass(workload, seed, data_dir, work, label)
        record["plain_s"].append(wall_s)
        record["plain_ref_s"].append(ref_s)
        record["pass_dirs"].append(label)
        if trace:
            label = f"pass-{len(record['pass_dirs'])}"
            run_s, tracer = _traced_pass(workload, seed, data_dir, work, label)
            record["traced_s"].append(run_s)
            record["pass_dirs"].append(label)
            record["layers"].append(spans.layer_metrics(tracer.spans, tracer.counts, run_s))
            tracer.dump(work / f"{label}.spans.jsonl")
        done = len(record["plain_s"]) >= (1 if trace else 2)
        if done and sum(record["plain_s"] + record["traced_s"]) >= seconds:
            break
    probe_up_to(1.0)
    record["restored"] = (spans.same_objects(originals, spans.bound_objects())
                          and spans.same_objects(hooked, refclock.bound_objects()))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["run_s"] = statistics.median(record["plain_ref_s"])
    speed = sum(record["plain_ref_s"]) / sum(record["plain_s"])
    record["setup_s"] = [wall_s * speed for wall_s in record["setup_wall_s"]]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True, help="directory of the generated TSVs")
    parser.add_argument("--work", help="directory for pass outputs (passes mode)")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(workload, args.seed, args.data)
        return 0
    work = Path(args.work)
    shutil.rmtree(work / "live", ignore_errors=True)
    record = passes(workload, args.seed, args.data, work, args.seconds, bool(args.trace),
                    args.setup_probes)
    (work / "passes.json").write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
