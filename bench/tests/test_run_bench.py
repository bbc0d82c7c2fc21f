"""Tests of the benchmark's own code: span arithmetic, wrapper install and
removal, failure counting, host-speed scaling, and agreement with
BENCHMARK.json."""

import dataclasses
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import run_bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

TINY_CONFIG = {
    "seed": 11,
    "task": {"dim": 6, "classes": 3, "per_class": 12, "noise_sigma": 0.15,
             "shift": {"rotation_seed": 7, "magnitude": 0.6}},
    "model": {"dims": [6, 8, 8, 3]},
    "pretrain": {"epochs": 4, "base_lr": 0.05, "warmup_epochs": 1, "batch_size": 12},
    "finetune": {"k": 2, "variant": "row", "lambda": 0.01, "norm": "l2",
                 "regular": {"last_l": 1}, "tau": 0.5, "subsets_n": 2,
                 "batch_size": 12, "epochs": 3, "base_lr": 0.02, "warmup_epochs": 1},
}


def _tiny_workload(config: dict) -> Workload:
    def write_inputs(seed, inp):
        (inp / "run.json").write_text(json.dumps(config))

    def commands(inp, out):
        return [
            Command("pretrain", ("pretrain", "--config", str(inp / "run.json"),
                                 "--out", str(out / "model.json")), (out / "model.json",), 36),
            Command("finetune", ("finetune", "--config", str(inp / "run.json"),
                                 "--checkpoint", str(out / "model.json"),
                                 "--out", str(out / "report.json")),
                    (out / "report.csv", out / "report.mask.json"), 36, out / "report.json"),
        ]
    return Workload("tiny", "test", write_inputs, commands)


def _bindings() -> dict:
    """Every name bound in a masktune module or in the traced classes."""
    from masktune.masking import LayerMask
    from masktune.model import ModelParams
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "masktune" or name.startswith("masktune.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (ModelParams, LayerMask):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_self_time_on_nested_spans():
    # a [0,100] holds b [10,60] and c [70,90]; b holds c [20,30] and b [40,55]
    recorded = [
        (3, "c", 20, 30, 2, 0),
        (5, "b", 40, 55, 2, 0),
        (2, "b", 10, 60, 1, 0),
        (4, "c", 70, 90, 1, 0),
        (1, "cli.cmd_a", 0, 100, None, 0),
    ]
    stats = spans.summarize(recorded)
    assert stats["cli.cmd_a"] == [1, 30, 100]
    assert stats["b"] == [2, 25 + 15, 50]  # the nested b is not counted twice in total
    assert stats["c"] == [2, 30, 30]
    assert sum(s[1] for s in stats.values()) == 100
    assert spans.command_ns(recorded) == 100


def test_wrappers_keep_outputs_identical_and_are_removed(tmp_path):
    workload = _tiny_workload(TINY_CONFIG)
    workload.write_inputs(0, tmp_path)
    import masktune.cli  # noqa: F401  (loads every layer module before the snapshot)
    before = _bindings()
    iterations, tracer = run_bench.run_loop(workload, tmp_path, tmp_path / "work", seconds=0,
                                            trace=True, seed=0, min_iterations=2)
    assert [it.traced for it in iterations] == [False, True]
    assert [it.problems for it in iterations] == [[], []]  # artifacts byte-identical
    layers = iterations[1].layers
    assert layers["cli.cmd_pretrain.calls"] == 1 and layers["cli.cmd_finetune.calls"] == 1
    assert layers["optim.masked_adam_step.calls"] > 0 and layers["optim.state_bytes"] > 0
    assert layers["model.checkpoint_bytes"] > 0
    assert tracer.absent == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not any(hasattr(v, "__bench_wrapped__") for v in after.values())


def test_invalid_config_counts_as_failed(tmp_path):
    bad = dict(TINY_CONFIG, finetune={**TINY_CONFIG["finetune"], "k": "two"})
    workload = _tiny_workload(bad)
    workload.write_inputs(0, tmp_path)
    iterations, _ = run_bench.run_loop(workload, tmp_path, tmp_path / "work", seconds=0,
                                       trace=False, seed=0, min_iterations=2)
    for it in iterations:
        assert it.attempted == 2 and it.failed == 2
        assert all("exited 2" in p for p in it.problems)
    _, detail = run_bench.summarize_run(iterations, [0.1])
    assert detail["failed_frac"] == 1.0


def test_missing_target_is_absent_not_fatal():
    tracer = spans.Tracer(targets=spans.TARGETS + (("harness", "no_such_function", False),
                                                   ("no_such_module", "f", False)))
    tracer.install()
    try:
        assert tracer.absent == ["harness.no_such_function", "no_such_module.f"]
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics([], ["model.forward"])
    assert "model.forward.calls" not in metrics and metrics["model.backward.calls"] == 0


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run_bench, "SRC", tmp_path / "src")
    assert run_bench.main(["--workload", "ref-pipeline", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert [m["name"] for m in doc["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == run_bench.unit_of(m["name"]) for m in doc["per_layer"])


def test_pinned_accuracy_mismatch_counts_as_failed(tmp_path):
    workload = dataclasses.replace(_tiny_workload(TINY_CONFIG), pinned_accuracy={5: 0.5})
    workload.write_inputs(5, tmp_path)
    iterations, _ = run_bench.run_loop(workload, tmp_path, tmp_path / "work", seconds=0,
                                       trace=False, seed=5, min_iterations=1)
    (it,) = iterations
    assert it.failed == 1 and "!= pinned 0.5" in it.problems[0]


def test_host_speed_scales_time_back_to_reference():
    ref = hostspeed.REFERENCE_S
    sampler = hostspeed.SpeedSampler()
    # half the time at reference speed, half twice as slow: a workload that
    # needs 1 s at reference speed takes 1 / 0.75 s, and scales back to 1 s
    sampler.samples = [ref, 2 * ref] * 50
    assert sampler.speed() == 0.75
    assert abs((1 / 0.75) * sampler.speed() - 1.0) < 1e-12


def test_sampler_always_leaves_a_sample_and_stops(monkeypatch):
    monkeypatch.setattr(hostspeed, "PERIOD_S", 60.0)
    with hostspeed.SpeedSampler() as sampler:
        pass
    assert len(sampler.samples) == 1 and sampler.samples[0] > 0
    assert not sampler._thread.is_alive()
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.001)
    with hostspeed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
    assert len(sampler.samples) > 1 and sampler.cpu_s > 0
    assert gc.isenabled()  # a sample turns the collector off only while it runs


def test_warmup_measures_peak_allocation_without_sampling(tmp_path):
    workload = _tiny_workload(TINY_CONFIG)
    workload.write_inputs(0, tmp_path)
    iterations, _ = run_bench.run_loop(workload, tmp_path, tmp_path / "work", seconds=0,
                                       trace=False, seed=0, min_iterations=2)
    warmup, timed = iterations
    assert warmup.problems == [] and timed.problems == []
    assert warmup.peak_alloc_mb > 0 and timed.peak_alloc_mb == 0
    assert warmup.norm_cpu_s == 0 < timed.norm_cpu_s
    assert not tracemalloc.is_tracing()


def test_warmup_repeat_is_left_out_of_the_timings():
    def it(cpu, traced=False):
        return run_bench.Iteration(traced, wall_s=cpu, cpu_s=cpu, norm_cpu_s=cpu / 2,
                                   attempted=1, samples=10)
    iterations = [it(100.0), it(2.0), it(50.0, traced=True), it(4.0), it(3.0)]
    iterations[0].peak_alloc_mb = 42.0
    e2e, detail = run_bench.summarize_run(iterations, [0.3, 0.1, 0.2])
    assert e2e == {"setup_s": 0.2, "norm_cpu_s": 1.5, "peak_alloc_mb": 42.0}
    assert detail["cpu_s"] == 3.0 and detail["host_speed"] == 0.5
