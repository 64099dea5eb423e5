"""Tests of the benchmark itself: span arithmetic, attribute restoration,
every workload path on tiny inputs, and the command's exit contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from harness import LAYERS, run_workload  # noqa: E402
from spans import Layer, Span, Tracer, originals, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "a", -1, 0.0, 10.0),
        Span(1, "b", 0, 1.0, 4.0),
        Span(2, "c", 0, 5.0, 9.0),
        Span(3, "d", 2, 6.0, 8.0),
        Span(4, "b", -1, 10.0, 12.0),
    ]
    assert self_times(spans) == {
        "a": (1, 3.0),
        "b": (2, 5.0),
        "c": (1, 2.0),
        "d": (1, 2.0),
    }
    # self times add up to the top-level spans' wall time
    assert sum(t for _, t in self_times(spans).values()) == 12.0


def test_self_time_of_a_slice_ignores_spans_outside_it():
    spans = [Span(0, "setup", -1, 0.0, 1.0), Span(1, "m", -1, 1.0, 3.0),
             Span(2, "k", 1, 1.5, 2.0)]
    assert self_times(spans[1:]) == {"m": (1, 1.5), "k": (1, 0.5)}


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Box:
        def get(self):
            return mod.inner(0)

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_records_nesting_and_restores_attributes(fake_module):
    layers = (
        Layer("outer", ("fake_layers:outer",)),
        Layer("inner", ("fake_layers:inner",), outcome=lambda r: r > 1),
        Layer("box", ("fake_layers:Box.get",)),
        Layer("gone", ("fake_layers:missing", "no_such_module:f")),
    )
    before = originals(layers)
    with Tracer(layers) as tracer:
        assert fake_module.outer is not before["fake_layers:outer"]
        assert fake_module.outer(1) == 4
        assert fake_module.Box().get() == 1
    assert originals(layers) == before
    assert fake_module.outer(1) == 4
    assert tracer.absent == ["gone"]
    names = [(s.name, s.parent, s.outcome) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, True), ("box", -1, None),
                     ("inner", 2, False)]


def test_tracer_restores_attributes_when_the_march_raises(fake_module):
    layers = (Layer("outer", ("fake_layers:outer",)),)
    before = originals(layers)
    with pytest.raises(TypeError):
        with Tracer(layers):
            fake_module.outer("x")
    assert originals(layers) == before


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_on_tiny_inputs(name, trace):
    before = originals(LAYERS)
    out = run_workload(name, 7041, 0.01, trace, tiny=True)
    assert originals(LAYERS) == before
    result = out["result"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _declared(kind)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.absent_layers"]["value"] == 0
        assert metrics["solver.march.calls"]["value"] == out["report"]["draws"]
        generated = metrics["solver.set_generation.calls"]["value"]
        assert (generated == 0) == (name == "visco-archive")


def _exact_outputs(seed: int) -> list[dict]:
    out = run_workload("plastic-sparse", seed, 0.01, False, tiny=True)
    return [
        {k: v for k, v in d.items() if k != "wall_march_s"}
        for d in out["report"]["draw_outputs"]
    ]


def test_fingerprints_and_counts_repeat_exactly():
    assert _exact_outputs(11) == _exact_outputs(11)
    assert _exact_outputs(12) != _exact_outputs(11)


def _command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_command_knows_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_command_prints_the_result_last():
    proc = _command(ROOT, "--workload", "visco-archive", "--seed", "3",
                    "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "visco-dense", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
