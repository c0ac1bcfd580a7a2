"""The nmems benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload figures|sweep_modes|library \\
        --seed N --seconds S --trace 0|1

It uses the nmems sources under ./src (nothing needs building), starts one
child process at a time with NMEMS_THREADS unset, and writes scratch files
under ./.bench_work only.  Workloads:

* figures: ``nmems preset fig1``..``fig4`` and ``nmems headlines``, each a
  fresh ``python -m nmems`` process; one round is those five commands.
* sweep_modes: ``nmems sweep`` of all 15 quantities on the 60 p x 20 theta
  grid over the default ranges, once per channel mode; one round is three
  commands.
* library: a closed loop with one client sending seeded requests through the
  per-point API (see child.py); one round is a batch of 50 requests.

The seed drives the library inputs and the sampled CSV cells; preset and
sweep grids are fixed so their output bytes compare across commits.  Every
output is checked (sweep-cell oracle, headline anchors, numpy references)
and a wrong output counts as a failed operation.  With --trace 0 the run
reports end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and reports per-layer metrics per traced round, plus the tracing
overhead.  Every time is scaled to a fixed reference speed of the machine,
measured next to each command, probe or batch (speed.py); the times as
measured are printed too.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work" / str(os.getpid())
PYTHON = sys.executable
RUN_DEADLINE_S = 170.0   # every run ends well inside 180 s
LIBRARY_SEGMENT_S = 6.0
LIBRARY_MIN_SEGMENT_S = 2.0

if not (SRC / "nmems" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'nmems'} not found; run from the root of an nmems checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from speed import Calibration  # noqa: E402
from tracer import TRACED  # noqa: E402

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "NMEMS_THREADS"}
CHILD_ENV["PYTHONPATH"] = str(SRC)

QUANTITIES = (
    "concurrence", "concurrence_ad", "concurrence_wootters",
    "concurrence_ad_wootters", "fidelity", "fidelity_ad",
    "fidelity_ad_closed_form", "discord", "entropy", "entropy_ad", "mid",
    "chsh", "witness_generic", "witness_w1", "witness_stabilizer",
)
HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# (output name, CLI arguments, grid the CSV must carry; None for stdout)
FIGURES = (
    ("fig1.csv", ["preset", "fig1"], checks.Grid(
        (0.0, 0.291), 292, (0.0, HALF_PI), 46, ("concurrence", "concurrence_ad"), "closed_form")),
    ("fig2.csv", ["preset", "fig2"], checks.Grid(
        (0.0, 0.249), 250, (0.0, HALF_PI), 46, ("fidelity", "fidelity_ad_closed_form"),
        "closed_form")),
    ("fig3.csv", ["preset", "fig3"], checks.Grid(
        (0.0, 0.291), 292, (0.0, QUARTER_PI), 46, ("mid", "fidelity_ad_closed_form"),
        "closed_form")),
    ("fig4.csv", ["preset", "fig4"], checks.Grid(
        (0.0, 0.249), 250, (0.0, 0.0), 1, ("concurrence", "discord", "fidelity"), "closed_form")),
    ("headlines", ["headlines"], None),
)
SWEEP_MODES = tuple(
    (f"sweep_{mode}.csv",
     ["sweep", "--p-min", "0", "--p-max", "0.292", "--p-steps", "60",
      "--theta-min", "0", "--theta-max", "pi/4", "--theta-steps", "20",
      "--quantities", ",".join(QUANTITIES), "--channel-mode", mode,
      "--out", f"sweep_{mode}.csv"],
     checks.Grid((0.0, 0.292), 60, (0.0, QUARTER_PI), 20, QUANTITIES, mode))
    for mode in ("closed_form", "correlated", "product")
)
# sha256 prefixes of the outputs at the baseline commit (a record, not a gate)
BASELINE_SHA256 = {
    "fig1.csv": "ff22b210e035cb22",
    "fig2.csv": "8b93956310733932",
    "fig3.csv": "772fdc8e29900fcb",
    "fig4.csv": "bebc25d454b72ed1",
    "headlines": "a89c0a91e91c36c0",
}
# traced functions whose self time equals their total time (no traced callees)
LEAVES = {"linalg.as_matrix", "states.x_params_of", "measures.concurrence_x",
          "measures.fidelity_ad_closed_form", "sweep.emit_csv"}
END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "cells_per_s": "1/s",
    "requests_per_s": "1/s", "request_p50_us": "us", "request_p90_us": "us",
    "peak_rss_mb": "MB",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def run_child(argv: list, stdout_path: Path, deadline: Deadline) -> dict:
    """Run one child to completion; wall time from spawn to exit, and the
    child's own CPU time and peak RSS from wait4."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=CHILD_ENV, stdout=out, stderr=err)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (WORK / "stderr.txt").read_bytes()[-2000:].decode("utf-8", "replace")
        print(f"child {argv[1:]} exited {proc.returncode}: {tail}", file=sys.stderr)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


class Setup:
    """Time from a fresh interpreter to ``import nmems`` returning, probed
    twice between rounds or segments so that its median covers the same
    stretch of time as the other metrics.  A first probe (bytecode
    compilation) is not counted."""

    def __init__(self, deadline: Deadline, calibration: Calibration):
        self.deadline = deadline
        self.calibration = calibration
        self.walls: list[float] = []      # scaled to the reference speed
        self.raw_walls: list[float] = []  # as measured
        self.probe()
        self.walls.clear()
        self.raw_walls.clear()

    def probe(self) -> None:
        child = run_child([PYTHON, "-c", "import nmems"], WORK / "setup.out", self.deadline)
        if child["code"] != 0:
            sys.exit("error: cannot import nmems from ./src")
        self.walls.append(child["wall"] * self.calibration.scale())
        self.raw_walls.append(child["wall"])


def percentile(values: list, q: int) -> float:
    """q-th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Outputs:
    """Checksums and verdicts of every output, checked once per distinct
    content; an output whose bytes change between rounds is wrong."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.sha256: dict[str, str] = {}
        self.verdicts: dict[str, list] = {}
        self.cells = 0

    def check(self, name: str, data: bytes, grid) -> list:
        digest = hashlib.sha256(data).hexdigest()
        first = self.sha256.setdefault(name, digest)
        if digest not in self.verdicts:
            try:
                if grid is None:
                    problems = checks.check_headlines(data)
                else:
                    problems = checks.check_sweep_csv(data, grid, self.rng)
            except (UnicodeDecodeError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
            self.verdicts[digest] = [f"{name}: {p}" for p in problems]
        if grid is not None:
            self.cells += max(0, data.count(b"\n") - 1) * (2 + len(grid.quantities))
        if digest != first:
            return [f"{name}: bytes differ between rounds"]
        return self.verdicts[digest]


def run_cli_workload(commands, seed: int, seconds: float, trace: bool, deadline):
    calibration = Calibration()
    setup = Setup(deadline, calibration)
    outputs = Outputs(seed)
    rounds = []  # (traced, wall_s)
    # untraced (wall, cpu) samples per command, scaled and as measured
    samples: dict[str, list] = {name: [] for name, _, _ in commands}
    raw: dict[str, list] = {name: [] for name, _, _ in commands}
    rss, problems = [], []
    attempted = failed = 0
    stats: dict = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < 2:
        # a traced run alternates untraced and traced rounds; the gap between
        # their medians is the tracing overhead
        traced = trace and len(rounds) % 2 == 1
        wall = 0.0
        for name, args, grid in commands:
            stats_path = WORK / "trace.json"
            if traced:
                argv = [PYTHON, str(BENCH / "child.py"), "cli", str(stats_path), *args]
            else:
                argv = [PYTHON, "-m", "nmems", *args]
            child = run_child(argv, WORK / "stdout.txt", deadline)
            scale = calibration.scale()
            wall += child["wall"] * scale
            if not traced:
                samples[name].append((child["wall"] * scale, child["cpu"] * scale))
                raw[name].append((child["wall"], child["cpu"]))
            rss.append(child["rss_mb"])
            attempted += 1
            wrong = [f"{name}: exit code {child['code']}"] if child["code"] else []
            if not wrong:
                path = WORK / ("stdout.txt" if grid is None else name)
                wrong = outputs.check(name, path.read_bytes(), grid)
            if wrong:
                failed += 1
                problems.extend(wrong)
            if traced and child["code"] == 0:
                merge_trace(stats, json.loads(stats_path.read_text()))
        setup.probe()
        setup.probe()
        rounds.append((traced, wall))
    untraced = [r for r in rounds if not r[0]]

    def round_time(per_command, i):
        return sum(statistics.median(s[i] for s in v) for v in per_command.values())

    result = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "sha256": outputs.sha256, "rounds": len(untraced),
        "round_unit": f"{len(commands)} commands", "statistic": "per-command medians",
        # a round's time is the sum of each command's median, so a slow
        # stretch of the machine in one command of a round does not move it;
        # the commands differ in size, so latency percentiles are likewise
        # taken over each command's median
        "wall_s": round_time(samples, 0),
        "cpu_s": round_time(samples, 1),
        "raw_wall_s": round_time(raw, 0),
        "raw_cpu_s": round_time(raw, 1),
        "latencies_s": [statistics.median(w for w, _ in v) for v in samples.values()],
        "latency_unit": f"the median wall times of {len(commands)} commands",
        "rss_mb": max(rss), "setup_walls": setup.walls, "raw_setup_walls": setup.raw_walls,
        "probes": calibration.probes,
        "cells_per_round": outputs.cells / len(rounds), "requests_per_round": len(commands),
    }
    if trace:
        tr = [r[1] for r in rounds if r[0]]
        result["trace"] = (stats, len(tr), statistics.median(tr)
                           - statistics.median(r[1] for r in untraced))
    return result


def run_library_workload(seed: int, seconds: float, trace: bool, deadline):
    """Library clients run in segments of LIBRARY_SEGMENT_S, each a fresh
    process with its own warm-up, with two set-up probes after each."""
    calibration = Calibration()
    setup = Setup(deadline, calibration)
    report_path = WORK / "library.json"
    batches, raw, probes, latencies_ns = [], [], [], []
    attempted = failed = 0
    failures: dict = {}
    stats: dict = {}
    rss = 0.0
    start = time.perf_counter()
    segment = 0
    while segment == 0 or time.perf_counter() - start < seconds - LIBRARY_MIN_SEGMENT_S:
        length = max(LIBRARY_MIN_SEGMENT_S,
                     min(LIBRARY_SEGMENT_S, seconds - (time.perf_counter() - start)))
        argv = [PYTHON, str(BENCH / "child.py"), "library", str(report_path),
                "--seed", str(seed), "--segment", str(segment),
                "--seconds", str(length), "--trace", str(int(trace))]
        child = run_child(argv, WORK / "stdout.txt", deadline)
        if child["code"] != 0:
            sys.exit("error: the library client crashed")
        rep = json.loads(report_path.read_text())
        batches += rep["batches"]
        raw += [r for b, r in zip(rep["batches"], rep["raw"]) if not b[0]]
        probes += rep["probes"]
        latencies_ns += rep["latencies_ns"]
        attempted += rep["attempted"]
        failed += rep["failed"]
        for name, n in rep["failures"].items():
            failures[name] = failures.get(name, 0) + n
        if trace:
            merge_trace(stats, rep["trace"])
        rss = max(rss, child["rss_mb"])
        calibration.restart()
        setup.probe()
        setup.probe()
        segment += 1
    untraced = [b for b in batches if not b[0]]
    result = {
        "attempted": attempted, "failed": failed,
        "problems": [f"{name}: {n} requests" for name, n in failures.items()],
        "sha256": {}, "rounds": len(untraced), "round_unit": f"{rep['batch']} requests",
        "statistic": "means",
        # batches are short next to the stretches in which a shared machine
        # runs fast or slow, so their median jumps between the two speeds;
        # the mean moves smoothly with the share of slow time
        "wall_s": statistics.fmean(b[1] for b in untraced),
        "cpu_s": statistics.fmean(b[2] for b in untraced),
        "raw_wall_s": statistics.fmean(w for w, _ in raw),
        "raw_cpu_s": statistics.fmean(c for _, c in raw),
        "latencies_s": [ns / 1e9 for ns in latencies_ns],
        "latency_unit": f"the CPU times of {len(latencies_ns)} requests", "rss_mb": rss,
        "setup_walls": setup.walls, "raw_setup_walls": setup.raw_walls,
        "probes": probes + calibration.probes,
        "cells_per_round": rep["batch"] * rep["results_per_request"],
        "requests_per_round": rep["batch"],
    }
    if trace:
        tr = [b[1] for b in batches if b[0]]
        result["trace"] = (stats, len(tr), statistics.fmean(tr) - result["wall_s"])
    return result


def merge_trace(total: dict, snapshot: dict) -> None:
    for name, values in snapshot["functions"].items():
        acc = total.setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(values):
            acc[i] += v
    for name, value in snapshot["counts"].items():
        total[name] = total.get(name, 0) + value
    cache = total.setdefault("nmems_cache", [0, 0])
    cache[0] += snapshot["nmems_cache"][0]
    cache[1] += snapshot["nmems_cache"][1]


def per_layer_metrics(trace: tuple) -> dict:
    """Per-layer numbers per traced round, from the merged trace."""
    stats, n_rounds, overhead = trace
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    functions = [f"{m}.{q}" for m, q in TRACED] + [f"sweep.quantity.{q}" for q in QUANTITIES]
    for name in functions:
        calls, total_s, self_s = stats.get(name, [0, 0.0, 0.0])
        put(f"{name}.calls", calls / n_rounds, "count")
        put(f"{name}.total_s", total_s / n_rounds, "s")
        if name not in LEAVES and not name.startswith("sweep.quantity."):
            put(f"{name}.self_s", self_s / n_rounds, "s")
    calls, total_s, _ = stats.get("linalg.hermitian_eigen", [0, 0.0, 0.0])
    put("linalg.hermitian_eigen.us_per_call", total_s / calls * 1e6 if calls else 0.0, "us")
    hits, misses = stats.get("nmems_cache", [0, 0])
    put("states.nmems.cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for name in ("sweep.rows", "sweep.cells", "sweep.na_cells"):
        put(name, stats.get(name, 0) / n_rounds, "count")
    put("sweep.csv_bytes", stats.get("sweep.csv_bytes", 0) / n_rounds, "bytes")
    put("trace.overhead_s", overhead, "s")
    return metrics


def end_to_end_metrics(result: dict) -> dict:
    wall = result["wall_s"]
    latencies_us = [s * 1e6 for s in result["latencies_s"]]
    values = {
        "wall_s": wall,
        "cpu_s": result["cpu_s"],
        "setup_s": statistics.median(result["setup_walls"]),
        "cells_per_s": result["cells_per_round"] / wall,
        "requests_per_s": result["requests_per_round"] / wall,
        "request_p50_us": percentile(latencies_us, 50),
        "request_p90_us": percentile(latencies_us, 90),
        "peak_rss_mb": result["rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": git_sha(),
    }


WORKLOADS = {
    "figures": functools.partial(run_cli_workload, FIGURES),
    "sweep_modes": functools.partial(run_cli_workload, SWEEP_MODES),
    "library": run_library_workload,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    record = run_record(args)
    deadline = Deadline(RUN_DEADLINE_S)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"run record: {json.dumps(record)}")
    for name, digest in sorted(result["sha256"].items()):
        base = BASELINE_SHA256.get(name)
        note = f"  (baseline {base}: {'match' if digest.startswith(base) else 'CHANGED'})" if base else ""
        print(f"sha256 {name}: {digest}{note}")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    share = result["failed"] / result["attempted"]
    print(f"failed_share: {share:g} ({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        metrics = per_layer_metrics(result["trace"])
        print(f"per-layer numbers are per traced round ({result['trace'][1]} rounds of "
              f"{result['round_unit']})")
    else:
        metrics = end_to_end_metrics(result)
        print(f"{result['statistic']} over {result['rounds']} rounds of {result['round_unit']} "
              f"and median over {len(result['setup_walls'])} set-up probes; "
              f"latency percentiles over {result['latency_unit']}")
        probes_ms = statistics.quantiles([p * 1e3 for p in result["probes"]], n=4)
        print(f"times scaled to the reference speed; reference kernel quartiles "
              f"{probes_ms[0]:.3f} / {probes_ms[1]:.3f} / {probes_ms[2]:.3f} ms over "
              f"{len(result['probes'])} probes; as measured: wall_s = {result['raw_wall_s']:.6g} s, "
              f"cpu_s = {result['raw_cpu_s']:.6g} s, "
              f"setup_s = {statistics.median(result['raw_setup_walls']):.6g} s")
        # p99 is printed, not gated: on a shared host it is set by the host
        p99 = percentile([s * 1e6 for s in result["latencies_s"]], 99)
        print(f"request_p99_us = {p99:.6g} us (informational, not a metric)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
