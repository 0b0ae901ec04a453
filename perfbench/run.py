"""Benchmark of the lexsets CLI on seeded workloads with planted truth.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload itwac-sparse --seed 1 --seconds 32 --trace 0

The inputs for (workload, seed) are generated once into ``.perfbench_cache/``
and never timed. The run then repeats whole rounds until ``--seconds`` have
passed. With ``--trace 0`` a round times the CLI as a user runs it, one
process at a time:

    lexsets validate-config   (twice; set-up: interpreter start, import, config checks)
    lexsets extract --workers 1
    lexsets extract --workers 2
    lexsets analyze           (on the database the --workers 1 extract wrote)

with the reference process ``python -c "import numpy, scipy.stats"`` timed
before each extract --workers 1 and each analyze, and checks every output
against the planted truth. Each time metric is the median of its samples
scaled by REFERENCE_S / (median reference time), so that it does not move
with the machine's speed, which varies by up to 2x on a shared host.

With ``--trace 1`` a round runs the same stages in this process with the
per-layer tracer of ``layers.py``, and times ``import lexsets.cli`` in a
fresh interpreter.
Each stage counts as one attempted operation, failed when it exits non-zero
or its output does not check. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, each metric the median
over the run's samples (time metrics scaled as above).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SEEDS_KEPT = 10           # generated input sets kept per workload (about 130 MB each at most)
SETUPS_PER_ROUND = 2
# A program-independent process timed beside the stages: its median in a run
# measures how fast this machine is during that run (see README.md).
REFERENCE = [sys.executable, "-c", "import numpy, scipy.stats"]
REFERENCE_S = 1.0
STAGE_TIMEOUT_S = 90

sys.path.insert(0, str(BENCH_DIR))
import check  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("itwac-sparse", "dense-sets")  # the keys of gen.WORKLOADS; gen loads numpy, so it is imported late


def _inputs(workload: str, seed: int) -> Path:
    """Generated inputs for (workload, seed), made once and kept until evicted."""
    stamp = hashlib.sha256((BENCH_DIR / "gen.py").read_bytes()).hexdigest()[:16]
    directory = CACHE / f"{workload}-{seed}"
    stamp_file = directory / "generator.stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        os.utime(directory)
        return directory
    staging = CACHE / f".{workload}-{seed}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(directory, ignore_errors=True)
    import gen  # numpy and scipy load only when inputs are made

    gen.generate(workload, seed, staging)
    (staging / "generator.stamp").write_text(stamp)
    staging.rename(directory)
    others = sorted((d for d in CACHE.glob(f"{workload}-*") if d != directory and d.is_dir()),
                    key=lambda d: d.stat().st_mtime, reverse=True)
    for old in others[SEEDS_KEPT - 1:]:
        shutil.rmtree(old, ignore_errors=True)
    return directory


def _environment() -> dict:
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


class Launcher:
    """A small process that starts and times every measured command; see launch.py."""

    def __init__(self):
        self.process = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], cwd: Path) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS MB of the process tree, exit code, stderr) of one command."""
        request = {"args": args, "cwd": str(cwd), "env": _environment(), "timeout": STAGE_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        stderr = (cwd / "stderr.txt").read_text(errors="replace")
        return reply["wall_s"], reply["peak_rss_mb"], reply["code"], stderr

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=STAGE_TIMEOUT_S)
        self.process.stdout.close()


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "lexsets.cli", *args]


class Run:
    """Samples and operation counts of one benchmark run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], **values: float) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
            return
        for name, value in values.items():
            self.samples.setdefault(name, []).append(value)

    def medians(self, names) -> dict:
        """Median of each metric's samples; counts stay whole numbers; None when no sample."""
        values = {}
        for name in names:
            samples = self.samples.get(name)
            if not samples:
                values[name] = None
            elif all(isinstance(v, int) for v in samples):
                values[name] = statistics.median_low(samples)
            else:
                values[name] = statistics.median(samples)
        return values


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory / "run"


def _reference(run: Run, launcher: Launcher, inputs: Path) -> None:
    wall, _, code, _ = launcher.run(REFERENCE, inputs)
    if code == 0:
        run.samples.setdefault("reference_s", []).append(wall)


def _cli_round(run: Run, launcher: Launcher, inputs: Path, truth: dict) -> None:
    for _ in range(SETUPS_PER_ROUND):
        wall, _, code, err = launcher.run(_cli("validate-config", "--config", "config.json"), inputs)
        run.record([] if code == 0 else [f"validate-config exit {code}: {err[-300:]}"], setup_s=wall)

    prefix_1 = _fresh(inputs / "out" / "w1")
    _reference(run, launcher, inputs)
    wall, rss, code, err = launcher.run(
        _cli("extract", "--config", "config.json", "--workers", "1", "--output-prefix", "out/w1/run"), inputs)
    problems = [f"extract --workers 1 exit {code}: {err[-300:]}"] if code else check.check_extract(prefix_1, truth)
    run.record(problems, extract_s=wall, extract_peak_rss_mb=rss)

    prefix_2 = _fresh(inputs / "out" / "w2")
    wall, rss, code, err = launcher.run(
        _cli("extract", "--config", "config.json", "--workers", "2", "--output-prefix", "out/w2/run"), inputs)
    problems = ([f"extract --workers 2 exit {code}: {err[-300:]}"] if code
                else check.check_extract(prefix_2, truth) + check.check_identical(prefix_1, prefix_2))
    run.record(problems, extract_w2_s=wall, extract_w2_peak_rss_mb=rss)

    _reference(run, launcher, inputs)
    wall, rss, code, err = launcher.run(
        _cli("analyze", "--config", "config.json", "--output-prefix", "out/w1/run"), inputs)
    problems = [f"analyze exit {code}: {err[-300:]}"] if code else check.check_analyze(prefix_1, truth)
    run.record(problems, analyze_s=wall, analyze_peak_rss_mb=rss)


def _import_seconds(inputs: Path) -> tuple[float | None, str]:
    code = ("import time; t = time.perf_counter(); import lexsets.cli; "
            "print(time.perf_counter() - t)")
    result = subprocess.run([sys.executable, "-c", code], cwd=inputs, env=_environment(),
                            capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
    if result.returncode:
        return None, result.stderr[-300:]
    return float(result.stdout.strip().splitlines()[-1]), ""


def _traced_round(run: Run, inputs: Path, truth: dict, rounds: list) -> None:
    from lexsets import cli

    import_s, err = _import_seconds(inputs)
    run.record([] if import_s is not None else [f"import failed: {err}"], **{"cli.import_s": import_s})

    tracer = layers.Tracer()
    absent: set[str] = set()
    stage_s = {}
    problems = {}
    config = cli.load_config(inputs / "config.json")
    for stage, workers, prefix in (("extract", 1, "out/w1/run"), ("extract_w2", 2, "out/w2/run"),
                                   ("analyze", 1, "out/w1/run")):
        config.worker_count = workers
        config.output_prefix = prefix
        if stage != "analyze":
            _fresh(inputs / Path(prefix).parent)
        # The pool pickles count_fillers by name, so the --workers 2 stage runs untraced inside.
        tracing = layers.patched(tracer, absent) if workers == 1 else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with tracing, tracer.span(f"cli.cmd_{stage}"):
                code = cli.cmd_extract(config) if stage.startswith("extract") else cli.cmd_analyze(config)
        except Exception as exc:  # a failing stage is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        stage_s[stage] = time.perf_counter() - started
        if code:
            problems[stage] = [f"{stage} returned {code}"]
    if "extract" not in problems:
        problems["extract"] = check.check_extract(inputs / "out/w1/run", truth)
    if "extract_w2" not in problems:
        problems["extract_w2"] = check.check_identical(inputs / "out/w1/run", inputs / "out/w2/run")
    if "analyze" not in problems:
        problems["analyze"] = check.check_analyze(inputs / "out/w1/run", truth)
    for stage in ("extract", "extract_w2", "analyze"):
        run.record(problems[stage])
    if not any(problems.values()):
        for name, value in layers.layer_metrics(tracer, stage_s, absent).items():
            if value is not None:
                run.samples.setdefault(name, []).append(value)
    rounds.append({"spans": tracer.spans, "counts": dict(tracer.counts), "absent": sorted(absent),
                   "uncalled": sorted(layers.uncalled(tracer))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexsets" / "cli.py").is_file():
        print(f"error: no lexsets source at {SRC}; run from a lexsets checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Started before the inputs are loaded, while this process is still small.
    launcher = Launcher()
    try:
        return _measure(args, launcher)
    finally:
        launcher.close()


def _measure(args: argparse.Namespace, launcher: Launcher) -> int:
    # The metrics reported, their order and units are those BENCHMARK.json lists.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        listed = json.load(stream)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    names = list(units)
    inputs = _inputs(args.workload, args.seed)
    if args.trace:
        os.chdir(inputs)  # the in-process stages resolve the config's relative paths here
    with open(inputs / "truth.json", encoding="utf-8") as stream:
        truth = json.load(stream)
    # Warm-up, not measured: compiles the package's bytecode and loads it into the page cache.
    launcher.run(_cli("validate-config", "--config", "config.json"), inputs)

    run = Run()
    rounds: list = []
    started = time.perf_counter()
    while True:
        if args.trace:
            _traced_round(run, inputs, truth, rounds)
        else:
            _cli_round(run, launcher, inputs, truth)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds:
            break

    missed = check.self_test(inputs / "out" / "w1" / "run", truth, inputs / "out" / "selftest")
    for problem in run.problems + [f"self-test missed {m}" for m in missed]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"samples: {json.dumps(run.samples)}", file=sys.stderr)

    if args.trace:
        trace_path = inputs / "trace.json"
        with open(trace_path, "w", encoding="utf-8") as stream:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds}, stream)
        print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    values = run.medians(names)
    if not args.trace:
        # Scale each time to a machine on which the reference takes REFERENCE_S.
        times = [name for name in names if units[name] == "s"]
        print(f"unscaled: {json.dumps(run.medians(times + ['reference_s']))}", file=sys.stderr)
        reference = run.medians(["reference_s"])["reference_s"]
        for name in times:
            if values[name] is not None and reference is not None:
                values[name] *= REFERENCE_S / reference
    result = {
        "correct": not missed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
