"""Closed-loop benchmark of the masktune CLI.

    python3 bench/run_bench.py --workload ref-pipeline --seed 7 --seconds 16 --trace 0
    python3 bench/run_bench.py --workload all --seed 7

The process pins itself to one CPU. Set-up runs the workload's input writer
(bench/workloads.py) several times, each in a fresh interpreter, and reports
the median. Then one caller in this process runs the workload's CLI commands
through ``masktune.cli.main``, each after the previous one returned. The first
repeat is a warm-up: it runs under tracemalloc for the peak memory and is left
out of the timings. The sequence then repeats while another repeat fits in
``--seconds`` (at least twice). A sampler thread measures the host's speed
during every timed command and every set-up (bench/hostspeed.py), and the
times are reported at a reference host speed. Every repeat is checked: each
command exits 0 and its artifacts are byte-identical to the first repeat's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` untraced and traced repeats alternate, and it carries the
per-layer metrics of the traced ones (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import SpeedSampler, pin_to_one_cpu
from spans import Tracer, command_ns, layer_metrics
from workloads import SRC, WORKLOADS, Command, Workload

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
BLAS_THREADS = 1  # one thread keeps cpu_s equal to busy time and runs steadier on a shared host
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up repeats at least SETUP_MIN_REPEATS times and, while it is cheap,
# until SETUP_MIN_SECONDS have passed, so that short set-ups get more samples
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 1.0
SETUP_TIMEOUT_S = 120
# The first repeat is checked but left out of the timings: it pays for lazy
# imports and cold caches, and ran 10% slower than the rest on wide-pretrain.
# It runs under tracemalloc instead, for peak_alloc_mb, and --seconds counts
# from its end.
WARMUP_ITERATIONS = 1
MIN_ITERATIONS = WARMUP_ITERATIONS + 2
TRAINING_KINDS = ("pretrain", "finetune", "ablate")

END_TO_END_UNITS = {"setup_s": "s", "norm_cpu_s": "s", "peak_alloc_mb": "MB"}


class SetupError(RuntimeError):
    """The workload's inputs could not be written."""


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    cpu_s: float
    norm_cpu_s: float  # cpu_s at the reference host speed; 0 in warm-up repeats
    peak_alloc_mb: float = 0.0  # tracemalloc peak of a warm-up repeat
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    command_s: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None
    layers: dict[str, float] | None = None


# -- running and checking commands ---------------------------------------------

def run_command(cli_main, argv) -> tuple[int | None, str]:
    """Call the CLI in process; return (exit code or None if it raised, stderr)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_command(cmd: Command, code, err: str, out: Path, index: int,
                  reference: dict, pinned: float | None) -> tuple[list[str], float | None]:
    """Problems with one command's run, and the accuracy its report states."""
    if code != 0:
        return [f"{cmd.kind} exited {code}: {err.strip()[-400:]}"], None
    problems = []
    for path in cmd.artifacts:
        name = str(path.relative_to(out))
        if not path.is_file():
            problems.append(f"{cmd.kind}: {name} missing")
            continue
        digest = file_digest(path)
        if reference.setdefault((index, name), digest) != digest:
            problems.append(f"{cmd.kind}: {name} differs from the first repeat")
    accuracy = None
    if cmd.report is not None:
        try:
            accuracy = json.loads(cmd.report.read_text())["final_accuracy"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{cmd.kind}: unreadable report: {exc!r}")
        else:
            if not isinstance(accuracy, float) or not 0.0 <= accuracy <= 1.0:
                problems.append(f"{cmd.kind}: final_accuracy {accuracy!r} not in [0, 1]")
            elif pinned is not None and accuracy != pinned:
                problems.append(f"{cmd.kind}: final_accuracy {accuracy!r} != pinned {pinned!r}")
    return problems, accuracy


def run_loop(workload: Workload, inputs: Path, work: Path, seconds: float, trace: bool,
             seed: int, min_iterations: int = MIN_ITERATIONS) -> tuple[list[Iteration], Tracer]:
    """Repeat the workload's commands while another repeat fits in `seconds`.

    The first WARMUP_ITERATIONS repeats run under tracemalloc and without the
    host-speed sampler, and `seconds` counts from their end. Odd repeats are
    traced if `trace`.
    """
    from masktune.cli import main as cli_main

    tracer = Tracer()
    reference: dict = {}
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while len(iterations) < min_iterations or (
            time.perf_counter() - start + iterations[-1].wall_s <= seconds):
        i = len(iterations)
        warmup = i < WARMUP_ITERATIONS
        traced = trace and i % 2 == 1
        out = work / f"iter{i}"
        out.mkdir(parents=True)
        commands = workload.commands(inputs, out)
        first_span = len(tracer.spans)
        if traced:
            tracer.begin_run(i)
            tracer.install()
        results = []
        cpu_s = norm_cpu_s = peak_alloc_mb = 0.0
        if warmup:
            tracemalloc.start()
        wall0 = time.perf_counter()
        try:
            for cmd in commands:
                with contextlib.ExitStack() as stack:
                    sampler = None if warmup else stack.enter_context(SpeedSampler())
                    c0, t0 = time.process_time(), time.perf_counter()
                    code, err = run_command(cli_main, cmd.argv)
                    elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
                if sampler is not None:
                    cpu -= sampler.cpu_s
                    norm_cpu_s += cpu * sampler.speed()
                cpu_s += cpu
                results.append((cmd, code, err, elapsed))
        finally:
            tracer.uninstall()
            if warmup:
                peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        it = Iteration(traced, time.perf_counter() - wall0, cpu_s, norm_cpu_s, peak_alloc_mb)
        for index, (cmd, code, err, elapsed) in enumerate(results):
            it.command_s[cmd.kind] = it.command_s.get(cmd.kind, 0.0) + elapsed
            it.samples += cmd.samples
            it.attempted += 1
            problems, accuracy = check_command(cmd, code, err, out, index, reference,
                                               workload.pinned_accuracy.get(seed))
            if problems:
                it.failed += 1
                it.problems += problems
            if accuracy is not None:
                it.accuracy = accuracy
        if traced:
            spans = tracer.spans[first_span:]
            it.layers = layer_metrics(spans, tracer.absent)
            it.layers["optim.state_bytes"] = tracer.state_bytes
            it.layers["model.checkpoint_bytes"] = tracer.checkpoint_bytes
            it.layers["trace.unattributed_frac"] = 1.0 - command_ns(spans) / 1e9 / it.wall_s
        shutil.rmtree(out)
        iterations.append(it)
        if len(iterations) == WARMUP_ITERATIONS:
            start = time.perf_counter()
    return iterations, tracer


# -- set-up -------------------------------------------------------------------

def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): file_digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


def set_up(name: str, seed: int, work: Path) -> tuple[list[float], list[float], bool]:
    """Write the inputs several times.

    Return the wall times, the same at the reference host speed, and whether
    all copies agree.
    """
    times, norm_times, digests = [], [], []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        i = len(times)
        target = work / f"setup{i}"
        with SpeedSampler() as sampler:  # the child runs on the same pinned CPU
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
                 "--seed", str(seed), "--out", str(target)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        norm_times.append(times[-1] * sampler.speed())
        if proc.returncode != 0:
            raise SetupError(f"writing inputs for {name} failed:\n{proc.stderr}")
        digests.append(tree_digest(target))
        if i:
            shutil.rmtree(target)
    return times, norm_times, all(d == digests[0] for d in digests)


# -- machine facts ------------------------------------------------------------

def steal_ticks() -> int | None:
    """Host steal time in clock ticks since boot, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK")}


# -- one workload ---------------------------------------------------------------

def summarize_run(iterations: list[Iteration], setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced repeats, and the fuller detail record."""
    plain = [it for it in iterations[WARMUP_ITERATIONS:] if not it.traced]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "norm_cpu_s": statistics.median([it.norm_cpu_s for it in plain]),
        "peak_alloc_mb": iterations[0].peak_alloc_mb,
    }
    attempted = sum(it.attempted for it in iterations)
    detail = dict(e2e)
    detail["wall_s"] = statistics.median([it.wall_s for it in plain])
    detail["cpu_s"] = statistics.median([it.cpu_s for it in plain])
    detail["host_speed"] = statistics.median([it.norm_cpu_s / it.cpu_s for it in plain])
    detail["samples_per_s"] = statistics.median([it.samples / it.wall_s for it in plain])
    for kind in sorted({k for it in plain for k in it.command_s}):
        detail[kind.replace("-", "_") + "_s"] = statistics.median([it.command_s[kind] for it in plain])
    train = [(sum(n for k, n in it.command_s.items() if k in TRAINING_KINDS), it) for it in plain]
    if all(t > 0 for t, _ in train):
        detail["train_samples_per_s"] = statistics.median([it.samples / t for t, it in train])
    accuracies = {it.accuracy for it in iterations if it.accuracy is not None}
    if accuracies:
        detail["final_accuracy"] = min(accuracies)
    detail["failed_frac"] = sum(it.failed for it in iterations) / attempted
    return e2e, detail


def trace_metrics(iterations: list[Iteration]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the first traced repeat, times as medians."""
    traced = [it.layers for it in iterations if it.traced]
    plain = [it.norm_cpu_s for it in iterations[WARMUP_ITERATIONS:] if not it.traced]
    problems = []
    metrics = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        if name.endswith("_s") or name.endswith("_frac"):
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced repeats: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_frac"] = (
        statistics.median(it.norm_cpu_s for it in iterations if it.traced) / statistics.median(plain)
        - 1.0)
    return metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac") or name == "host_speed":
        return "frac"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "final_accuracy":
        return "frac"
    return "s"


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal_before = steal_ticks()
    setup_times, setup_norm_times, setup_identical = set_up(name, seed, work)

    sys.path.insert(0, str(SRC))
    import masktune
    if Path(masktune.__file__).resolve().parent != SRC / "masktune":
        raise SetupError(f"imported masktune from {masktune.__file__}, not from {SRC}")

    iterations, tracer = run_loop(workload, work / "setup0", work, seconds, trace, seed)
    steal_after = steal_ticks()

    e2e, detail = summarize_run(iterations, setup_norm_times)
    detail["setup_wall_s"] = statistics.median(setup_times)
    # the high-water mark varies between runs with the state of the whole
    # machine's memory, by up to 14% on wide-pretrain, so it is not a result metric
    detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for it in iterations for p in it.problems]
    if not setup_identical:
        problems.append("set-up repeats wrote different inputs")
    metrics = e2e
    if trace:
        metrics, trace_problems = trace_metrics(iterations)
        problems += trace_problems
        problems += [f"probe error {e}" for e in tracer.probe_errors]
        write_spans(tracer, work / "trace.jsonl")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "loop": "closed, 1 caller",
        "machine": machine_facts(),
        "host_steal_ticks": {"before": steal_before, "after": steal_after,
                             "delta": None if None in (steal_before, steal_after)
                             else steal_after - steal_before},
        "repeats": len(iterations), "setup_times_s": setup_times,
        "setup_norm_times_s": setup_norm_times,
        "wall_s_per_repeat": [it.wall_s for it in iterations],
        "norm_cpu_s_per_repeat": [it.norm_cpu_s for it in iterations],
        "traced_per_repeat": [it.traced for it in iterations],
        "detail": detail, "absent": tracer.absent, "problems": problems,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return {
        "record": record,
        "result": {"correct": failed == 0 and not problems, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}},
    }


def print_report(record: dict, result: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['repeats']} repeats, {record['loop']}, "
          f"BLAS threads {record['machine']['blas_threads']}, "
          f"host steal ticks {record['host_steal_ticks']['delta']}")
    rows = record["detail"] if not record["trace"] else result["metrics"]
    for name, value in rows.items():
        value = value["value"] if isinstance(value, dict) else value
        print(f"  {name:<42} {value:>14.6g} {unit_of(name)}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    for name in record["absent"]:
        print(f"  absent  {name}")


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "masktune" / "cli.py").is_file():
        print(f"error: no masktune sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(out["record"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
