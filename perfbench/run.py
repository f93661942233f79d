"""Pipeline benchmark for the bundlemin CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monodromy-circles --seed 0 --seconds 60 --trace 0

Each workload runs the four CLI commands (build, minimal-set, classify,
plot) serially, each as its own child process, into a fresh ``--out``
directory, as a user would.  Every command's exit code and outputs are
checked against the goldens in ``perfbench/goldens``.  Each command's time
is its CPU time (user plus system) and its peak RSS, both from the child's
own rusage (``os.wait4``); wall time from child start to child exit is
printed and recorded beside it.

``--trace 0`` repeats the pipeline as often as it fits in ``--seconds``
(at least once), round r on CLI seed index (seed + r) mod 10, and reports
medians of the end-to-end metrics.  ``--trace 1`` runs the pipeline on CLI
seed index seed mod 10 once untraced and once through
``perfbench/tracer.py``, which wraps the public functions at each module
boundary, and reports the per-layer metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
GOLDEN_DIR = BENCH_DIR / "goldens"
WORK_DIR = ROOT / ".perfbench_out"
SRC_DIR = ROOT / "src"

DELTA = "0.02"
# The benchmark's --seed selects one of these recorded CLI seed indices.
SEED_INDICES = 10
# Commands that take under a second, where one sample is mostly start-up
# noise: every timed round runs each of them CHEAP_REPEATS times.
CHEAP_COMMANDS = ("build", "plot")
CHEAP_REPEATS = 2
# A run must end within 180 s; no child may outlive this deadline.
RUN_DEADLINE_S = 170.0

# workload -> (construction, --steps)
WORKLOADS = {
    "odometer-classify": ("theorem-d-1", 100_000),
    "monodromy-circles": ("torus-on-mobius", 100_000),
    "sturmian-orbit": ("sturmian-cylinder", 100_000),
    # tiny config for perfbench/selftest.py; not listed in BENCHMARK.json
    "mobius-tiny": ("mobius", 2_000),
}

COMMANDS = ("build", "minimal-set", "classify", "plot")
OUTPUTS = {
    "build": ("system.json", "summary.txt"),
    "minimal-set": ("sample.csv", "provenance.json"),
    "classify": ("dichotomy.json", "trichotomy.json", "circles.json", "verdict.txt"),
    "plot": ("sample.svg",),
}
# verdict files are compared as parsed JSON; every other output by SHA-256
JSON_OUTPUTS = {"dichotomy.json", "trichotomy.json", "circles.json"}

END_TO_END = {
    "setup_s": "s",
    "minimal_set_s": "s",
    "classify_s": "s",
    "plot_s": "s",
    "pipeline_s": "s",
    "minimal_set_rss_mb": "MB",
    "classify_rss_mb": "MB",
}

# (span, statistic) pairs reported by the traced run, plus the counters
PER_LAYER = (
    ("analysis.classify_fibre", "calls"),
    ("analysis.classify_fibre", "s"),
    ("analysis.classify_fibre", "distinct_ratio"),
    ("analysis.typical_fibre_report", "s"),
    ("analysis.circles_report", "s"),
    ("analysis.endpoint_statistics", "s"),
    ("analysis.interior_detector", "s"),
    ("graphs.distances_to_many", "calls"),
    ("graphs.distances_to_many", "s"),
    ("graphs.eval_graph_map", "calls"),
    ("graphs.eval_graph_map", "s"),
    ("graphs.enumerate_circles", "calls"),
    ("analysis.approximate_minimal_set", "s"),
    ("analysis.thin", "self_s"),
    ("analysis.orbit", "kept"),
    ("analysis.orbit", "kept_ratio"),
    ("analysis.sampled_set_init", "s"),
    ("analysis.fibre_slice", "calls"),
    ("analysis.fibre_slice", "s"),
    ("bundles.apply_skew", "calls"),
    ("bundles.apply_skew", "s"),
    ("bundles.transport_to", "calls"),
    ("bundles.transport_to", "s"),
    ("base_systems.apply", "calls"),
    ("base_systems.apply", "s"),
    ("base_systems.embedding", "calls"),
    ("base_systems.embedding", "s"),
    ("constructions.build", "calls"),
    ("constructions.build", "s"),
    ("cli.sample_to_csv", "s"),
    ("cli.csv_to_points", "calls"),
    ("cli.csv_to_points", "s"),
    ("plotting.render_sample_svg", "s"),
)
STAT_UNITS = {"calls": "count", "kept": "count", "s": "s", "self_s": "s",
              "distinct_ratio": "ratio", "kept_ratio": "ratio"}


def cli_args(workload: str, command: str, out: Path, seed_index: int) -> list[str]:
    construction, steps = WORKLOADS[workload]
    args = {
        "build": [construction],
        "minimal-set": ["--steps", str(steps), "--delta", DELTA, "--seed", str(seed_index)],
        "classify": ["--delta", DELTA],
        "plot": ["--delta", DELTA],
    }[command]
    return [command, *args, "--out", str(out)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], out: Path, command: str, deadline: float) -> dict:
    """Run one child to completion; return its exit code, wall and CPU time and
    peak RSS."""
    out.mkdir(parents=True, exist_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    with open(out / f"{command}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def command_argv(workload: str, command: str, out: Path, seed_index: int,
                 trace: bool) -> list[str]:
    args = cli_args(workload, command, out, seed_index)
    if trace:
        return [sys.executable, str(BENCH_DIR / "tracer.py"),
                str(out / f"trace-{command}"), *args]
    return [sys.executable, "-m", "bundlemin.cli", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(command: str, out: Path, rc: int) -> dict:
    """The golden record of one command: exit code and its output files."""
    files = {}
    for name in OUTPUTS[command]:
        path = out / name
        if not path.exists():
            continue
        files[name] = sha256(path)
        if name in JSON_OUTPUTS:
            try:
                files[name] = json.loads(path.read_text())
            except ValueError:
                pass  # unparseable: its hash never equals the golden JSON
    return {"rc": rc, "files": files}


def check_command(command: str, out: Path, rc: int, golden: dict) -> list[str]:
    """Mismatches between one command's result and its golden record."""
    want = golden[command]
    got = snapshot(command, out, rc)
    problems = []
    if got["rc"] != want["rc"]:
        problems.append(f"{command}: exit code {got['rc']}, golden {want['rc']}")
    for name, value in want["files"].items():
        if name not in got["files"]:
            problems.append(f"{command}: {name} missing")
        elif got["files"][name] != value:
            problems.append(f"{command}: {name} differs from golden")
    return problems


def load_golden(workload: str, seed_index: int) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())[str(seed_index)]


class Tally:
    """Commands attempted and failed, with every mismatch printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"GOLDEN MISMATCH {p}", flush=True)


def run_command(workload: str, command: str, out: Path, seed_index: int, golden: dict,
                tally: Tally, deadline: float, trace: bool = False) -> dict:
    argv = command_argv(workload, command, out, seed_index, trace)
    res = run_child(argv, out, command, deadline)
    tally.record(check_command(command, out, res["rc"], golden))
    return res


def run_pipeline(workload: str, out: Path, seed_index: int, golden: dict, tally: Tally,
                 deadline: float, trace: bool = False) -> dict[str, dict]:
    shutil.rmtree(out, ignore_errors=True)
    return {c: run_command(workload, c, out, seed_index, golden, tally, deadline, trace)
            for c in COMMANDS}


def measure(workload: str, seed: int, seconds: float, tally: Tally, work: Path,
            deadline: float) -> tuple[dict[str, float], dict[str, list[dict]]]:
    """End-to-end metrics: medians over as many pipeline rounds as fit in
    ``seconds`` (at least one), after one untimed warm-up ``build``.

    Round r runs on CLI seed index (seed + r) mod SEED_INDICES, so a run
    spreads over several inputs, and runs each cheap command CHEAP_REPEATS
    times, so that every command's samples spread over the whole run.  The
    last round may stop part-way."""
    run_command(workload, "build", work / "warmup", seed % SEED_INDICES,
                load_golden(workload, seed % SEED_INDICES), tally, deadline)
    samples: dict[str, list[dict]] = {c: [] for c in COMMANDS}
    end = min(time.monotonic() + seconds, deadline)
    rounds = 0
    while True:
        seed_index = (seed + rounds) % SEED_INDICES
        golden = load_golden(workload, seed_index)
        out = work / f"round{rounds}"
        for c in COMMANDS:
            for _ in range(CHEAP_REPEATS if c in CHEAP_COMMANDS else 1):
                # run a command only if it should end within the run's time,
                # judged by its last sample; the first round always completes
                if rounds and time.monotonic() + samples[c][-1]["wall_s"] > end:
                    return summarize(samples, rounds)
                samples[c].append(run_command(workload, c, out, seed_index, golden, tally,
                                              deadline))
        rounds += 1
        print(f"round {rounds} (--seed {seed_index}): " + ", ".join(
            f"{c} {samples[c][-1]['wall_s']:.3f} s (cpu {samples[c][-1]['cpu_s']:.3f} s) "
            f"rc={samples[c][-1]['rc']}" for c in COMMANDS), flush=True)


def summarize(samples: dict[str, list[dict]],
              rounds: int) -> tuple[dict[str, float], dict[str, list[dict]]]:
    """Medians of every command's samples.

    Times are CPU time, not wall time: on a host whose other tenants share
    the cores, a command's wall time also holds the time its vCPU was
    taken away, which made the sub-second commands' medians spread two to
    four times as far.  The commands are single-threaded apart from numpy's
    start-up."""

    def med(command: str, key: str) -> float:
        return statistics.median(x[key] for x in samples[command])

    m = {
        "setup_s": med("build", "cpu_s"),
        "minimal_set_s": med("minimal-set", "cpu_s"),
        "classify_s": med("classify", "cpu_s"),
        "plot_s": med("plot", "cpu_s"),
        "minimal_set_rss_mb": med("minimal-set", "rss_mb"),
        "classify_rss_mb": med("classify", "rss_mb"),
    }
    m["pipeline_s"] = m["setup_s"] + m["minimal_set_s"] + m["classify_s"] + m["plot_s"]
    print(f"samples: {rounds} full pipeline rounds; "
          + ", ".join(f"{c} {len(samples[c])}" for c in COMMANDS), flush=True)
    return m, samples


def traced(workload: str, seed_index: int, golden: dict, tally: Tally, work: Path,
           deadline: float) -> dict[str, float]:
    """Per-layer metrics from one traced pipeline, plus the tracing overhead
    against one untraced pipeline run just before it."""
    plain = run_pipeline(workload, work / "untraced", seed_index, golden, tally, deadline)
    out = work / "traced"
    wrapped = run_pipeline(workload, out, seed_index, golden, tally, deadline, trace=True)
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for command in COMMANDS:
        agg_path = out / f"trace-{command}.json"
        if not agg_path.exists():
            continue  # the failed command is already counted and printed
        agg = json.loads(agg_path.read_text())
        for name, stats in agg["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += stats[k]
        for name, v in agg["counters"].items():
            counters[name] = counters.get(name, 0) + v
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m: dict[str, float] = {}
    for span, stat in PER_LAYER:
        s = spans.get(span, empty)
        if stat == "distinct_ratio":
            v = counters.get(f"{span}.distinct", 0) / s["calls"] if s["calls"] else 0.0
        elif stat == "kept":
            v = counters.get("analysis.orbit.kept", 0)
        elif stat == "kept_ratio":
            steps = counters.get("analysis.orbit.steps", 0)
            v = counters.get("analysis.orbit.kept", 0) / steps if steps else 0.0
        else:
            v = s[stat]
        m[f"{span}.{stat}"] = v

    def total(run: dict[str, dict]) -> float:
        return sum(r["cpu_s"] for r in run.values())

    m["trace.overhead_s"] = total(wrapped) - total(plain)
    print(f"pipeline_s untraced {total(plain):.3f} s, traced {total(wrapped):.3f} s",
          flush=True)
    return m


def metric_units() -> dict[str, str]:
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stat in PER_LAYER}
    units["trace.overhead_s"] = "s"
    return units


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    for needed in (SRC_DIR / "bundlemin" / "cli.py", GOLDEN_DIR / f"{args.workload}.json"):
        if not needed.exists():
            print(f"not found: {needed}", file=sys.stderr)
            return 2
    seed_index = args.seed % SEED_INDICES

    machine = machine_record()
    construction, steps = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine), flush=True)
    print(f"workload {args.workload}: {construction}, --steps {steps}, --delta {DELTA}, "
          f"--seed {seed_index} and up (from seed {args.seed}), trace {args.trace}", flush=True)

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    samples: dict[str, list[dict]] = {}
    if args.trace:
        metrics = traced(args.workload, seed_index, load_golden(args.workload, seed_index),
                         tally, work, deadline)
        units = metric_units()
    else:
        metrics, samples = measure(args.workload, args.seed, args.seconds, tally, work,
                                   deadline)
        units = END_TO_END

    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_fraction {tally.failed / tally.attempted} ratio "
          f"({tally.failed} of {tally.attempted} commands)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "machine": machine, "samples": samples}, indent=2))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
