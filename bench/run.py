"""polarsh benchmark.

    python3 bench/run.py --workload pprt-scene --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports polarsh from ``src/``.
It pins every thread pool to one thread before numpy loads, sets polarsh up
several times from a cold import, measures the three uses (weighted by the
workload and sized by ``--seconds``), rescales their times to a reference
speed (``reference.py``), checks every output, and prints a table, one JSON
detail line and, last, the result line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` reports
per-layer metrics from an outside-in trace instead of end-to-end ones.
"""

from __future__ import annotations

import os
import sys

PINNED_THREADS = {"POLARSH_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)       # before numpy loads its BLAS

import argparse          # noqa: E402
import json              # noqa: E402
import math              # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import tempfile          # noqa: E402
import time              # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import MIN_NEAR, REFERENCE_S, SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "material_project_s": "s",
    "bake_ms_per_vertex": "ms",
    "relight_ms_per_vertex": "ms",
    "pprt_rmse": "stokes",
    "project_ms": "ms",
    "rotate_ms": "ms",
    "convolve_ms": "ms",
    "reconstruct_ms": "ms",
    "resample_s2l2_ms": "ms",
    "resample_bilinear_ms": "ms",
    "s2l2_validate_s": "s",
    "resample_pole_dev": "ratio",
}
SINGLE_VALUED = ("pprt_rmse", "resample_pole_dev")

# traced public functions: (module, attribute path) -> label "<module>.<name>"
LAYERS = (
    ("operators", "shadow_expand"), ("operators", "visibility_project"),
    ("operators", "operator_project"), ("operators", "operator_apply"),
    ("pconv", "conv_project_operator"), ("pconv", "pconv_apply"),
    ("pconv", "kernel_coeffs"), ("polar", "SyntheticPbrdf.__call__"),
    ("shscalar", "wigner_d_stack"), ("shscalar", "sh_basis_real"),
    ("psh", "psh_rotate_coeffs"), ("psh", "psh_project"),
    ("psh", "psh_reconstruct"), ("psh", "psh_reconstruct_field"),
    ("psh", "s2sh_basis"),
    ("io", "load_stokes_field"), ("io", "save_stokes_field"),
    ("io", "load_psh_coeffs"), ("io", "save_psh_coeffs"),
    ("cli", "cmd_synth"), ("cli", "cmd_project"), ("cli", "cmd_rotate"),
    ("cli", "cmd_convolve"), ("cli", "cmd_reconstruct"),
    ("pipeline", "pprt_precompute"), ("pipeline", "pprt_shade"),
    ("s2l2", "render_image"), ("s2l2", "resample"),
    ("s2l2", "perturbation_protocol"), ("s2l2", "rotation_invariance_sweep"),
)
COUNTS = ("vertices_baked", "frames_shaded", "grid_points")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr in LAYERS:
        units[f"{module}.{attr}.calls"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
    units["operators.shadow_expand.cold_s"] = "s"
    units["io.bytes_read"] = "bytes"
    units["io.bytes_written"] = "bytes"
    for name in COUNTS:
        units[f"count.{name}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def summarize(samples):
    """Median plus the highest percentile with at least ten samples above it,
    given only where that percentile is not below the median (n >= 21)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None}
    if n >= 21:
        out["tail_pct"] = round(100.0 * (n - 11) / (n - 1), 1)
        out["tail"] = xs[n - 11]
    return out


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "threads": dict(PINNED_THREADS)}


def _io_bytes(kind):
    def hook(tracer, args, result):
        tracer.counts[f"io.bytes_{kind}"] += os.path.getsize(args[0])
    return hook


def make_tracer(mods):
    tracer = Tracer()
    for module, attr in LAYERS:
        owner = getattr(mods, module)
        name = attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(owner, cls)
        hook = None
        if module == "io":
            hook = _io_bytes("read" if name.startswith("load") else "written")
        tracer.add(owner, name, f"{module}.{attr}", hook)
    return tracer


def run_benchmark(workload, seed, sizes, trace, workdir):
    """Set up, measure and check one run; returns the printed report."""
    import workloads as W

    speed = SpeedLog()
    setups, spans = [], []
    inp = None
    for _ in range(sizes.setup_reps):
        inp = None      # let the previous import's modules and caches go
        speed.sample(MIN_NEAR // 2)
        t0 = time.perf_counter()
        inp, phases = W.set_up(seed, sizes)
        spans.append((t0, time.perf_counter()))
        speed.sample(MIN_NEAR // 2)
        setups.append(phases)
    for phases, (t0, t1) in zip(setups, spans):
        phases["setup_scaled_s"] = phases["setup_s"] * speed.factor(t0, t1)

    rec = W.Recorder(speed=speed)
    W.measure_all(rec, inp, workdir)
    recs = [rec]
    tracer = None
    if trace:
        tracer = make_tracer(inp.mods)
        traced = W.Recorder(tracer=tracer, speed=speed)
        with tracer:
            tracer.install(inp.mods.all())
            W.measure_all(traced, inp, workdir)
        recs.append(traced)

    timings = {name: summarize(rec.scaled(name)) for name in sorted(rec.samples)}
    raw = {name: summarize(values) for name, values in sorted(rec.samples.items())}
    e2e = {}
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            value = statistics.median(p["setup_scaled_s"] for p in setups)
        elif name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif name in SINGLE_VALUED:
            value = rec.values.get(name)
        else:
            value = timings.get(name, {}).get("median")
        e2e[name] = {"value": value, "unit": unit}

    layers = None
    if tracer is not None:
        layers = {}
        units = per_layer_units()
        for name, unit in units.items():
            if name.endswith(".calls"):
                value = tracer.calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                value = tracer.self_s[name[:-len(".self_s")]]
            elif name == "operators.shadow_expand.cold_s":
                value = statistics.median(p["cold_s"] for p in setups)
            elif name.startswith("io.bytes_"):
                value = tracer.counts[name]
            elif name.startswith("count."):
                value = traced.counts[name[len("count."):]]
            else:   # trace.overhead_s: same operations, traced minus untraced,
                # both at the reference speed, as the machine drifts between them
                value = traced.timed_scaled_s() - rec.timed_scaled_s()
            layers[name] = {"value": value, "unit": unit}

    failures = [f for r in recs for f in r.failures]
    return {
        "workload": workload, "seed": seed, "trace": int(bool(trace)),
        "sizes": asdict(sizes), "setup": {k: statistics.median(p[k] for p in setups)
                                          for k in setups[0]},
        "timings": timings, "raw_timings": raw, "values": rec.values,
        "counts": dict(rec.counts),
        "reference_s": {"nominal": REFERENCE_S, "median": statistics.median(speed.seconds),
                        "n": len(speed.seconds)},
        "timed_s": rec.timed_s, "traced_timed_s": recs[-1].timed_s if trace else None,
        "spans": tracer.spans if tracer is not None else None,
        "trace_coverage": {k: inside / timed for k, (inside, timed)
                           in sorted(traced.coverage.items())} if trace else None,
        "end_to_end": e2e, "per_layer": layers,
        "attempted": sum(r.attempted for r in recs), "failed": len(failures),
        "failures": failures,
    }


def result_line(report):
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    ok = report["failed"] == 0 and all(
        m["value"] is not None and math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": ok, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report, env):
    print(f"polarsh benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}")
    print(f"  {env['cpu']}; nproc {env['nproc']}; numpy {env['numpy']}; {env['blas']}; "
          f"threads {env['threads']}")
    ref = report["reference_s"]
    print(f"  reference kernel: median {ref['median'] * 1e3:.3f} ms over {ref['n']} samples, "
          f"nominal {ref['nominal'] * 1e3:g} ms")
    print(f"  {'timing':24s} {'median':>12s} {'tail':>16s} {'n':>5s} {'raw median':>12s}")
    for name, t in report["timings"].items():
        tail = f"{t['tail']:.4g} @p{t['tail_pct']:g}" if t["tail"] is not None else "-"
        print(f"  {name:24s} {t['median']:12.5g} {tail:>16s} {t['n']:5d} "
              f"{report['raw_timings'][name]['median']:12.5g}")
    for name, m in report["end_to_end"].items():
        print(f"  e2e {name:28s} {m['value']!s:>24s} {m['unit']}")
    if report["per_layer"]:
        for name, m in report["per_layer"].items():
            print(f"  layer {name:42s} {m['value']:14.6g} {m['unit']}")
        for name, share in report["trace_coverage"].items():
            print(f"  traced share of {name:24s} {share:8.1%}")
    for f in report["failures"]:
        print(f"  FAILED {f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "polarsh" / "__init__.py").is_file():
        print(f"error: no polarsh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads as W
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {W.WORKLOADS}",
              file=sys.stderr)
        return 2
    import polarsh
    if Path(polarsh.__file__).resolve().parent != SRC / "polarsh":
        print(f"error: polarsh imported from {polarsh.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    sizes = W.sizes_for(args.workload, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        report = run_benchmark(args.workload, args.seed, sizes, args.trace, workdir)
    env = environment(np)
    spans = report.pop("spans")
    if spans is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
    print_report(report, env)
    print(json.dumps({"detail": {**report, "environment": env}}, default=float))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
