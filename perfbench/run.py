#!/usr/bin/env python3
"""Benchmark of the diffcover CLI.  See perfbench/README.md.

    python3 perfbench/run.py --workload latin --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Run from any directory; the repository root is the parent of this file's
directory, and the package is loaded from its ``src``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files and span dumps go to ``.perfbench/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer, patched
from workloads import LAUNCH, SLOTS, Command, build, select

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# A process that only starts, imports and parses: the per-process set-up
# cost every command pays.  One sample is the fastest of SETUP_GROUP
# starts of it, alternating with bare ``python -c pass`` starts.  Set-up
# takes SETUP_SAMPLES samples and every untraced pass one more, so the
# samples span the whole run.
SETUP_COMMAND = Command(("spectrum", "--min", "6", "--max", "6"), "array")
SETUP_GROUP = 4
SETUP_SAMPLES = 4

# Other tenants of the machine slow it down, in phases that can last a
# whole run (up to 1.5x on the 2-vCPU x86 VM the benchmark was tuned on),
# and they slow process start-up more than computation.  So each run also
# times two fixed calibrations and scales its times by reference time over
# calibration time: process start-up by a bare Python start, and the rest
# of each command by calibrate() below, timed CALIBRATE_REPEAT times after
# every command.  The reference times are the calibrations' usual fastest
# times on that VM, so the scaled times read as seconds there.  See
# README.md for how much steadier this makes them.
BARE_START_REF_S = 0.044
CALIBRATE_REF_S = 0.0090
CALIBRATE_REPEAT = 2

# The traced run checks that the layer self times plus one setup_s per
# command account for the untraced wall_s: their ratio must lie within
# this factor of 1.  A miss counts as a failed operation.
ACCOUNT_TOLERANCE = 2.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def final_nodes(err: bytes) -> int:
    """Node count of the last status line a search writes to stderr."""
    lines = err.strip().splitlines()
    try:
        return int(json.loads(lines[-1])["nodes"])
    except (IndexError, ValueError, KeyError, TypeError):
        return -1


def describe(cmd: Command, code: int, out: bytes, err: bytes, work: Path) -> dict:
    """What the reference records about one execution."""
    entry: dict[str, object] = {"exit": code, "stdout_bytes": len(out), "stdout_sha256": sha256(out)}
    if cmd.kind in ("third", "hdm"):
        entry["nodes"] = final_nodes(err)
        entry["first_solution"] = out.decode(errors="replace")
    if cmd.outputs:
        entry["files"] = {name: sha256((work / name).read_bytes()) for name in cmd.outputs}
    return entry


def work_units(cmd: Command, entry: dict) -> int:
    if cmd.kind == "latin":
        return cmd.cells
    if cmd.kind in ("third", "hdm"):
        return int(entry["nodes"])
    return 1


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that allocates a small grid of
    tuples, like the Latin layer, and updates a dict."""
    start = perf_counter()
    grid = [tuple((c * 7 + j) % 301 for j in range(300)) for c in range(300)]
    sum(map(sum, grid))
    table = {}
    for i in range(20000):
        table[i & 1023] = i * i % 7
    return perf_counter() - start


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: tuple[str, ...], work: Path, env: dict[str, str],
          code: str = LAUNCH) -> tuple[float, int, int, bytes, bytes]:
    """Run one CLI process (``python -c code argv``) with stdout and stderr
    in files.  Returns its wall seconds, exit code, own max RSS in KiB,
    stdout and stderr.  Only the process is timed; reading the files comes
    after."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would only
        # keep the running maximum over every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


class Runner:
    """Runs commands in ``work`` and checks every result against the
    reference."""

    def __init__(self, work: Path, reference: dict):
        self.work = work
        self.env = cli_env()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.calibrations: list[float] = []

    def check(self, key: str, entry: object) -> None:
        self.attempted += 1
        if entry != self.reference.get(key):
            self.failed += 1
            print(f"mismatch: {key}", file=sys.stderr)

    def run(self, cmd: Command) -> tuple[float, dict, int]:
        """Seconds, reference entry and max RSS in KiB of one process."""
        seconds, code, rss_kib, out, err = spawn(cmd.argv, self.work, self.env)
        entry = describe(cmd, code, out, err, self.work)
        self.check(cmd.key, entry)
        return seconds, entry, rss_kib

    def bare_start(self) -> float:
        """Seconds of a ``python -c pass`` process."""
        return spawn((), self.work, self.env, code="pass")[0]

    def untraced_pass(self, commands: list[Command]) -> tuple[list[float], int, int]:
        """One pass, each command a fresh process.  Returns (seconds of
        each command, work units, largest max RSS in KiB)."""
        times = []
        units = rss = 0
        for cmd in commands:
            seconds, entry, rss_kib = self.run(cmd)
            self.calibrations += [calibrate() for _ in range(CALIBRATE_REPEAT)]
            times.append(seconds)
            units += work_units(cmd, entry)
            rss = max(rss, rss_kib)
        return times, units, rss

    def traced_pass(self, cli, commands: list[Command], dumps: list) -> dict[str, float]:
        """One pass in this process with spans around every layer call.
        Returns the per-layer values of the pass, its wall seconds
        (``pass_s``) and the self time of the layers below cli
        (``layers_s``)."""
        tracer = Tracer()
        wall = 0.0
        stdout_bytes = printed_pairs = 0
        nodes = {"third": 0, "hdm": 0}
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with patched(cli, tracer):
            for cmd in commands:
                start = perf_counter()
                with open(out_path, "w", encoding="utf-8") as out, \
                        open(err_path, "w", encoding="utf-8") as err:
                    saved = sys.stdout, sys.stderr
                    sys.stdout, sys.stderr = out, err
                    try:
                        root = tracer.begin("cli.main")
                        try:
                            code = cli.main(list(cmd.argv))
                        except Exception:
                            # A crash is a failed operation, as in a child process.
                            traceback.print_exc(file=saved[1])
                            code = -1
                        finally:
                            tracer.end(root)
                    finally:
                        sys.stdout, sys.stderr = saved
                wall += perf_counter() - start
                data = out_path.read_bytes()
                entry = describe(cmd, code, data, err_path.read_bytes(), self.work)
                self.check(cmd.key, entry)
                stdout_bytes += len(data)
                printed_pairs += data.count(b"\nclassify ")
                if cmd.kind in nodes:
                    nodes[cmd.kind] += int(entry["nodes"])
        dumps.append(tracer.to_obj())

        own = tracer.self_times()
        counts = tracer.counts
        calls = counts.get("latin.classify_calls", 0)
        values = {
            "latin.derive_s": own.get("latin.derive", 0.0),
            "latin.classify_s": own.get("latin.classify", 0.0),
            "latin.row_complete_s": own.get("latin.row_complete", 0.0),
            "latin.write_s": own.get("latin.write", 0.0),
            "latin.cells": counts.get("latin.cells", 0),
            "latin.classify_calls": calls,
            "latin.classify_useful_ratio": printed_pairs / calls if calls else 0.0,
            "construct.build_s": own.get("construct.build", 0.0),
            "construct.arrays": counts.get("construct.arrays", 0),
            "verify.dca_s": own.get("verify.dca", 0.0),
            "verify.hdm_s": own.get("verify.hdm", 0.0),
            "verify.dm_s": own.get("verify.dm", 0.0),
            "verify.entries_checked": counts.get("verify.entries_checked", 0),
            "core.read_array_s": own.get("core.read_array", 0.0),
            "core.write_array_s": own.get("core.write_array", 0.0),
            "core.bytes_parsed": counts.get("core.bytes_parsed", 0),
            "core.bytes_written": counts.get("core.bytes_written", 0),
            "cli.self_s": own.get("cli.main", 0.0),
            "cli.stdout_mb": stdout_bytes / 1e6,
            "layers_s": sum(t for name, t in own.items() if name != "cli.main"),
            "pass_s": wall,
        }
        for kind in ("third", "hdm"):
            values[f"search.{kind}.nodes"] = nodes[kind]
            span_s = own.get(f"search.{kind}", 0.0)
            values[f"search.{kind}.us_per_node"] = span_s * 1e6 / nodes[kind] if nodes[kind] else 0.0
        return values


def repeat_for(seconds: float, run_pass) -> list:
    """Run passes until the next one would end past ``seconds`` (at
    least one pass)."""
    start = perf_counter()
    results = []
    while True:
        begun = perf_counter()
        results.append(run_pass())
        last = perf_counter() - begun
        if perf_counter() - start + last > seconds:
            return results


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work, json.loads(REFERENCE.read_text()))
    commands, files = build(workload, select(workload, seed), work, runner.env)
    for name in files:
        runner.check(f"file {name}", sha256((work / name).read_bytes()))
    runner.run(SETUP_COMMAND)  # fills the bytecode cache

    def setup_sample() -> tuple[float, float]:
        """Fastest start of SETUP_COMMAND and fastest bare start."""
        own, bare = zip(*((runner.run(SETUP_COMMAND)[0], runner.bare_start())
                          for _ in range(SETUP_GROUP)))
        return min(own), min(bare)

    setup_samples = [setup_sample() for _ in range(SETUP_SAMPLES)]
    print(f"{workload} seed={seed}: {len(commands)} commands per pass: "
          + "; ".join(c.key for c in commands), file=sys.stderr)

    untraced_budget = seconds / 2 if trace else seconds

    def one_pass() -> tuple[list[float], int, int]:
        result = runner.untraced_pass(commands)
        setup_samples.append(setup_sample())
        return result

    passes = repeat_for(untraced_budget, one_pass)
    # Other tenants of the machine slow it down, never speed it up, also
    # in phases of seconds, so a median over a run moves with the share of
    # slow phases.  Each command's fastest run is the steady estimate of
    # its cost; setup samples are fastest starts for that reason.
    fastest = [min(run) for run in zip(*(p[0] for p in passes))]
    raw_wall_s = sum(fastest)
    raw_setup_s = statistics.median(own for own, _ in setup_samples)
    calibration_s = min(runner.calibrations)
    setup_s = BARE_START_REF_S * statistics.median(own / bare for own, bare in setup_samples)
    # Each command is one process start-up and the work after it.
    startups = len(commands)
    wall_s = (startups * setup_s
              + (raw_wall_s - startups * raw_setup_s) * CALIBRATE_REF_S / calibration_s)
    print(f"untraced passes (s): {[round(sum(p[0]), 3) for p in passes]}; fastest per command: "
          f"{[round(t, 3) for t in fastest]}; unscaled wall_s {raw_wall_s:.3f} and setup_s "
          f"{raw_setup_s:.4f}; calibrate() {calibration_s:.5f} s; bare start "
          f"{statistics.median(bare for _, bare in setup_samples):.4f} s; wall_s {wall_s:.3f}; "
          f"setup_s {setup_s:.4f}", file=sys.stderr)

    if not trace:
        section = "end_to_end"
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": max(p[2] for p in passes) * 1024 / 1e6,
            "items_per_s": passes[0][1] / wall_s,
        }
    else:
        import diffcover.cli as cli

        dumps: list = []
        cwd = os.getcwd()
        os.chdir(work)
        try:
            traced = repeat_for(seconds - untraced_budget,
                                lambda: runner.traced_pass(cli, commands, dumps))
        finally:
            os.chdir(cwd)
        # The fastest traced pass, for the reason wall_s takes each
        # command's fastest run.  Traced times are compared with the
        # unscaled untraced ones of the same run.
        section = "per_layer"
        values = min(traced, key=lambda layers: layers["pass_s"])
        startups_s = len(commands) * raw_setup_s
        values["trace.overhead_ratio"] = (values["pass_s"] + startups_s) / raw_wall_s
        layers_s = values["layers_s"]
        accounted = layers_s + values["cli.self_s"] + startups_s
        share = accounted / raw_wall_s
        runner.attempted += 1
        if not 1 / ACCOUNT_TOLERANCE <= share <= ACCOUNT_TOLERANCE:
            runner.failed += 1
            print("mismatch: traced time does not account for wall_s", file=sys.stderr)
        print(f"traced: layer self times {layers_s:.3f} s + cli self {values['cli.self_s']:.3f} s + "
              f"{len(commands)} x setup_s {raw_setup_s:.4f} s = {accounted:.3f} s = {share:.4f} x "
              f"untraced wall_s {raw_wall_s:.3f} s (both unscaled); overhead ratio "
              f"{values['trace.overhead_ratio']:.4f}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(dumps))

    # Names, units and order of the metrics come from BENCHMARK.json.
    spec = json.loads(SPEC.read_text())[section]
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def record(work: Path) -> None:
    """Run every command of every input once and write reference.json."""
    env = cli_env()
    reference: dict[str, object] = {}
    for workload in SLOTS:
        # Every option of every slot at once.
        commands, files = build(workload, SLOTS[workload], work, env)
        for name in files:
            reference[f"file {name}"] = sha256((work / name).read_bytes())
        for cmd in [SETUP_COMMAND, *commands]:
            if cmd.key in reference:
                continue
            _, code, _, out, err = spawn(cmd.argv, work, env)
            reference[cmd.key] = describe(cmd, code, out, err, work)
            print(f"recorded {cmd.key}: exit {code}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if not (SRC / "diffcover" / "cli.py").is_file():
        print(f"error: no diffcover package under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.record:
            record(work)
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
