"""Tests of the benchmark itself: tiny smoke runs, output schema, the tracer,
and failure accounting.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as R          # noqa: E402
import workloads as W    # noqa: E402
from reference import REFERENCE_S, SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """The workload's counts at one second, on problems small enough for a test."""
    return replace(W.sizes_for(workload, 1), setup_reps=1, l_low=2, l_high=3,
                   ref_band=12, sphere_lmax=6, oracle_dirs=1, cube_size=32,
                   equirect=(32, 64), identity=(8, 16), validate_n=200,
                   sweep_pairs=1)


@pytest.fixture
def inputs():
    return W.set_up(7, tiny("pprt-scene"))[0]


# -- smoke runs and schema ---------------------------------------------------

@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_matches_schema(workload, trace, tmp_path):
    report = R.run_benchmark(workload, 3, tiny(workload), trace, str(tmp_path))
    line = R.result_line(report)
    assert report["failures"] == []
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = line["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    json.dumps(line, allow_nan=False)
    if trace:
        metrics = line["metrics"]
        n = tiny(workload).bake_vertices
        assert metrics["count.vertices_baked"]["value"] == n
        assert metrics["pipeline.pprt_precompute.calls"]["value"] == n
        assert metrics["io.bytes_written"]["value"] > 0


def test_counts_repeat_exactly(tmp_path):
    a = R.run_benchmark("sphere-images", 1, tiny("sphere-images"), 0, str(tmp_path))
    b = R.run_benchmark("sphere-images", 2, tiny("sphere-images"), 0, str(tmp_path))
    assert a["counts"] == b["counts"] and a["attempted"] == b["attempted"]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(map(name.match, names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and unit.match(m["unit"])
        assert R.END_TO_END[m["name"]] == m["unit"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == R.per_layer_units()
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "sphere-images",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# -- tracer ------------------------------------------------------------------

def _toy_modules():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) + lib.inner(x)

    lib.inner, lib.outer = inner, outer
    user.inner = inner                      # a by-name binding
    return lib, user


def test_tracer_attributes_nested_calls_and_restores():
    lib, user = _toy_modules()
    inner, outer = lib.inner, lib.outer
    tracer = Tracer()
    tracer.add(lib, "inner", "lib.inner")
    tracer.add(lib, "outer", "lib.outer")
    tracer.install([lib, user])
    assert user.inner is lib.inner is not inner
    tracer.paused = False
    assert lib.outer(1) == 4 and user.inner(1) == 2
    tracer.restore()
    assert lib.inner is inner and lib.outer is outer and user.inner is inner
    assert tracer.calls == {"lib.inner": 3, "lib.outer": 1}
    labels = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert labels == ["lib.outer", "lib.inner", "lib.inner", "lib.inner"]
    assert parents == [-1, 0, 0, -1]
    outer_span = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:3])
    assert tracer.self_s["lib.outer"] == pytest.approx(
        outer_span[2] - outer_span[1] - children, abs=1e-9)


def test_tracer_records_nothing_while_paused():
    lib, user = _toy_modules()
    tracer = Tracer()
    tracer.add(lib, "inner", "lib.inner")
    with tracer:
        tracer.install([lib, user])
        lib.outer(1)
    assert tracer.spans == [] and not tracer.calls


def test_tracer_restores_every_polarsh_binding(inputs):
    mods = inputs.mods.all()
    before = [dict(vars(m)) for m in mods]
    call = inputs.mods.polar.SyntheticPbrdf.__dict__["__call__"]
    tracer = R.make_tracer(inputs.mods)
    tracer.install(mods)
    assert inputs.mods.pipeline.shadow_expand is inputs.mods.operators.shadow_expand
    for name in ("shadow_expand", "conv_project_operator", "pconv_apply",
                 "operator_apply", "visibility_project", "operator_project"):
        assert getattr(inputs.mods.pipeline, name).__wrapped__ is not None
    tracer.restore()
    assert [dict(vars(m)) for m in mods] == before
    assert inputs.mods.polar.SyntheticPbrdf.__dict__["__call__"] is call


def test_traced_bake_attributes_time_to_its_layers(inputs, tmp_path):
    tracer = R.make_tracer(inputs.mods)
    rec = W.Recorder(tracer=tracer)
    with tracer:
        tracer.install(inputs.mods.all())
        list(W.pprt_ops(rec, inputs))
    assert rec.failed == 0
    spans = tracer.spans
    n = inputs.sizes.bake_vertices
    bake = [i for i, s in enumerate(spans) if s[0] == "pipeline.pprt_precompute"]
    assert len(bake) == n and all(spans[i][3] == -1 for i in bake)
    expand = [s for s in spans if s[0] == "operators.shadow_expand"]
    assert len(expand) == n and all(spans[s[3]][0] == "pipeline.pprt_precompute"
                                    for s in expand)
    # self times of the traced layers add up to the traced wall time
    roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9)


# -- failure accounting ------------------------------------------------------

def _nan_shade(shade):
    def corrupted(*args, **kwargs):
        out = shade(*args, **kwargs)
        out[0, 1] = float("nan")
        return out
    return corrupted


def _shifted_save(save):
    def corrupted(path, coeffs):
        coeffs = coeffs.copy()
        coeffs.s0[0] += 1e-3
        save(path, coeffs)
    return corrupted


def _flipped_resample(resample):
    def corrupted(sources, dst, method="s2l2"):
        img = resample(sources, dst, method)
        img.data[..., 1] *= -1.0
        return img
    return corrupted


def _garbage_save(save):
    def corrupted(path, coeffs):
        with open(path, "wb") as f:
            f.write(b"PSH4 garbage")
    return corrupted


@pytest.mark.parametrize("module, name, corrupt, metric", [
    ("pipeline", "pprt_shade", _nan_shade, "relight_ms_per_vertex"),
    ("io", "save_psh_coeffs", _shifted_save, "project_ms"),
    ("io", "save_psh_coeffs", _garbage_save, "sphere: check raised"),
    ("s2l2", "resample", _flipped_resample, "resample_s2l2_ms"),
])
def test_corrupted_output_counts_as_failed(inputs, tmp_path, monkeypatch,
                                           module, name, corrupt, metric):
    owner = getattr(inputs.mods, module)
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    rec = W.Recorder()
    W.measure_all(rec, inputs, str(tmp_path))
    assert rec.failed >= 1
    assert any(f.startswith(metric) for f in rec.failures)
    assert R.result_line({"trace": 0, "failed": rec.failed, "attempted": rec.attempted,
                          "end_to_end": {}})["correct"] is False


def test_raising_operation_is_failed_and_untimed():
    rec = W.Recorder()
    op = rec.run("x_ms", lambda: 1 / 0)
    assert op.failed and rec.failed == 1 and rec.attempted == 1
    assert "x_ms" not in rec.samples


# -- reference speed ---------------------------------------------------------

def test_speed_log_rescales_by_nearby_reference_samples():
    log = SpeedLog()
    log.at = [float(t) for t in range(40)]
    log.seconds = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 20
    assert log.factor(2.0, 3.0) == 1.0
    assert log.factor(36.0, 37.0) == 0.5
    assert SpeedLog().factor(0.0, 1.0) == 1.0


def test_recorder_times_the_reference_before_each_operation():
    speed = SpeedLog()
    rec = W.Recorder(speed=speed)
    rec.run("x_ms", lambda: None)
    rec.run("x_ms", lambda: None)
    assert len(speed.seconds) == 2 and all(t > 0 for t in speed.seconds)
    # fewer than MIN_NEAR samples: all of them are near
    factor = REFERENCE_S / statistics.median(speed.seconds)
    assert rec.scaled("x_ms") == pytest.approx([v * factor for v in rec.samples["x_ms"]])
