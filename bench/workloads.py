"""The three polarsh uses the benchmark times, their seeded inputs and checks.

Every run measures all three uses, because every run must report every
end-to-end metric.  The workload named on the command line scales the sample
counts of the uses it weights by ``--seconds / 20``; the others keep the base
counts of ``Sizes``.  The uses are generators that yield after each timed
operation, and ``measure_all`` interleaves them so that each metric's samples
spread over the whole run: on a shared machine whose speed drifts over tens
of seconds, a metric timed in one burst would inherit the speed of that burst.

Checks and oracles run outside the timed calls and reuse the bounds of the
acceptance criteria in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

MODULES = ("geom", "shscalar", "polar", "psh", "operators", "pconv", "s2l2",
           "io", "pipeline", "cli")

# criterion 11's scene: two sphere occluders (center, angular radius)
OCCLUDERS = ((np.array([0.8, 0.15, 0.58]), 0.7),
             (np.array([-0.4, 0.7, -0.59]), 0.5))
CAMERA = np.array([3.0, 2.0, 4.0])          # the `polarsh pprt` default
PROBE_VERTICES = 8                          # pprt_rmse's fixed probe
PROBE_LIGHTING_SEED = 42                    # criterion 11's lighting seed


def _pi_minus_theta(theta):
    return (np.pi - theta) * np.eye(4)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; the counts default to the base counts."""
    setup_reps: int = 3
    # PRT: CLI defaults (l_low, l_high), criterion 11's oracle band
    l_low: int = 4
    l_high: int = 9
    ref_band: int = 48
    material_reps: int = 4
    bake_vertices: int = 20
    relight_vertices: int = 6
    frames: int = 20
    # sphere ops: criterion 4's band
    sphere_lmax: int = 32
    chains: int = 8
    oracle_dirs: int = 2
    # S2L2 images: criterion 12's images and criterion 6's protocol
    cube_size: int = 64
    equirect: tuple = (128, 256)
    identity: tuple = (48, 96)
    resamples: int = 8
    validate_n: int = 1000
    validate_eps: float = 0.1
    validate_reps: int = 3      # about 6 s each, so not scaled
    sweep_pairs: int = 3


# the counts each workload scales up
OWN_COUNTS = {
    "pprt-scene": ("material_reps", "bake_vertices", "frames"),
    "sphere-images": ("chains", "resamples"),
}
WORKLOADS = tuple(OWN_COUNTS)


def sizes_for(workload: str, seconds: int) -> Sizes:
    """Base counts, with the named workload's own counts scaled by
    ``seconds / 20``; the counts depend only on the arguments, so they
    repeat exactly."""
    if workload not in OWN_COUNTS:
        raise ValueError(f"unknown workload {workload!r}")
    base = Sizes()
    factor = max(1.0, seconds / 20.0)
    return replace(base, **{name: round(getattr(base, name) * factor)
                            for name in OWN_COUNTS[workload]})


def planned_seconds(sz: Sizes):
    """Nominal seconds of each use on a 2-core Xeon with BLAS pinned to one
    thread; used only to interleave the uses."""
    return {
        "pprt": 1.2 * sz.material_reps + 0.16 * sz.bake_vertices
        + 0.03 * sz.relight_vertices * sz.frames,
        "sphere": 0.2 + 1.35 * sz.chains,
        "s2l2": 5.5 * sz.validate_reps + 0.27 * sz.resamples,
    }


# ---------------------------------------------------------------------------
# operations and failure accounting
# ---------------------------------------------------------------------------

@dataclass
class Op:
    metric: str
    result: object = None
    failed: bool = False


@dataclass
class Recorder:
    """Times operations and counts the attempted and failed ones.

    An operation fails when it raises, or when a later check rejects its
    output; each operation is counted as failed at most once.  With a tracer,
    spans are recorded only inside the timed calls.  With a ``SpeedLog``, the
    reference kernel is timed right before each operation, and ``scaled``
    rescales the samples to the reference speed.
    """
    tracer: object = None
    speed: object = None
    samples: dict = field(default_factory=lambda: defaultdict(list))
    # metric -> [(start, end)] of each sample, for ``scaled``
    intervals: dict = field(default_factory=lambda: defaultdict(list))
    values: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)
    attempted: int = 0
    timed_s: float = 0.0
    # metric -> [seconds inside traced spans, seconds timed], with a tracer
    coverage: dict = field(default_factory=lambda: defaultdict(lambda: [0.0, 0.0]))

    @property
    def failed(self):
        return len(self.failures)

    def run(self, metric, fn, *args, scale=1.0):
        """Time ``fn(*args)``; a sample is ``seconds * scale``."""
        op = Op(metric)
        self.attempted += 1
        if self.speed is not None:
            self.speed.sample()
        if self.tracer is not None:
            first_span = len(self.tracer.spans)
            self.tracer.paused = False
        t0 = time.perf_counter()
        try:
            op.result = fn(*args)
        except Exception as e:      # any error of the program is a failed op
            self.reject(op, f"raised {type(e).__name__}: {e}")
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.paused = True
        self.timed_s += dt
        if not op.failed:
            self.samples[metric].append(dt * scale)
            self.intervals[metric].append((t0, t0 + dt))
        if self.tracer is not None:
            cover = self.coverage[metric]
            cover[0] += sum(s[2] - s[1] for s in self.tracer.spans[first_span:] if s[3] == -1)
            cover[1] += dt
        return op

    def _factor(self, t0, t1):
        return 1.0 if self.speed is None else self.speed.factor(t0, t1)

    def scaled(self, metric):
        """The metric's samples rescaled to the reference speed."""
        return [v * self._factor(t0, t1) for v, (t0, t1)
                in zip(self.samples[metric], self.intervals[metric])]

    def timed_scaled_s(self):
        """Seconds inside the timed operations, rescaled like their samples."""
        return sum((t1 - t0) * self._factor(t0, t1)
                   for intervals in self.intervals.values() for t0, t1 in intervals)

    def reject(self, op, reason):
        if not op.failed:
            op.failed = True
            self.failures.append(f"{op.metric}: {reason}")

    def skip(self, metric, reason):
        """Count an operation that could not run because its input failed."""
        self.attempted += 1
        self.failures.append(f"{metric}: skipped, {reason}")


def finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def coeffs_finite(c):
    return finite(c.s0, c.s3, c.spin2)


def cli_call(cli, argv):
    """Run ``polarsh.cli.main`` in-process; a nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as e:     # argparse rejects bad arguments this way
            rc = e.code if isinstance(e.code, int) else 2
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")


# ---------------------------------------------------------------------------
# set-up: import, seeded inputs, cold caches
# ---------------------------------------------------------------------------

class Modules:
    """Handles on freshly imported polarsh modules."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"polarsh.{name}"))

    def all(self):
        return [getattr(self, name) for name in MODULES]


@dataclass
class Inputs:
    mods: Modules
    sizes: Sizes
    # PRT
    mesh: object = None
    vertex_ids: np.ndarray = None
    material: object = None
    lighting: object = None
    rotations: list = None
    view: np.ndarray = None
    check_vertices: np.ndarray = None
    probe_lighting: object = None
    # sphere ops
    env_seed: int = 0
    chain_angles: list = None
    oracle_theta: np.ndarray = None
    oracle_phi: np.ndarray = None
    # S2L2 images
    cube_views: list = None
    dst: object = None
    identity_image: object = None
    pole_truth: np.ndarray = None
    sweep_seed: int = 0


def _purge_polarsh():
    for name in [n for n in sys.modules if n == "polarsh" or n.startswith("polarsh.")]:
        del sys.modules[name]
    gc.collect()


def set_up(seed: int, sizes: Sizes):
    """One cold set-up: fresh import of polarsh, seeded inputs, cold caches.

    polarsh is dropped from ``sys.modules`` first, so its module-level caches
    start empty on every call.  Returns the inputs and the phase times.
    """
    _purge_polarsh()
    t0 = time.perf_counter()
    mods = Modules()
    t1 = time.perf_counter()
    inp = _make_inputs(mods, seed, sizes)
    t2 = time.perf_counter()
    cold_s = _warm_caches(inp)
    t3 = time.perf_counter()
    return inp, {"setup_s": t3 - t0, "import_s": t1 - t0,
                 "inputs_s": t2 - t1, "warm_s": t3 - t2, "cold_s": cold_s}


def _make_inputs(m, seed, sz):
    inp = Inputs(m, sz)
    pl, geom, s2l2 = m.pipeline, m.geom, m.s2l2

    # The scene is fixed, as in criterion 11: the baked vertices are a prefix
    # of a fixed permutation of the 512-vertex sphere, so the first
    # PROBE_VERTICES of them are baked in every workload.  The seed drives
    # the lighting, its per-frame rotations and the checked vertex per frame.
    inp.mesh = pl.sphere_mesh()
    order = np.random.default_rng(0).permutation(len(inp.mesh.vertices))
    inp.vertex_ids = order[:sz.bake_vertices]
    inp.material = m.polar.synthetic_pbrdf(roughness=0.5, ior=1.5,
                                          horizon_sharpness=0.15)
    inp.view = geom.normalize(CAMERA[None, :] - inp.mesh.vertices[inp.vertex_ids])
    inp.probe_lighting = pl.random_psh_coeffs(sz.l_high, seed=PROBE_LIGHTING_SEED)
    rng = np.random.default_rng([seed, 1])
    inp.lighting = pl.random_psh_coeffs(sz.l_high, seed=int(rng.integers(2 ** 31)))
    inp.rotations = [geom.random_rotation(rng) for _ in range(sz.frames)]
    inp.check_vertices = rng.integers(0, sz.relight_vertices, sz.frames)

    rng = np.random.default_rng([seed, 2])
    inp.env_seed = int(rng.integers(2 ** 31))
    inp.chain_angles = [(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                         rng.uniform(0, 2 * np.pi)) for _ in range(sz.chains)]
    inp.oracle_theta = np.arccos(rng.uniform(-1, 1, sz.oracle_dirs))
    inp.oracle_phi = rng.uniform(0, 2 * np.pi, sz.oracle_dirs)

    # criterion 12's images are fixed; the seed drives the rotation sweep
    rng = np.random.default_rng([seed, 3])
    inp.cube_views = s2l2.cubemap_views(sz.cube_size)
    inp.dst = s2l2.ViewSpec("equirect", *sz.equirect)
    ident = s2l2.ViewSpec("equirect", *sz.identity)
    inp.identity_image = s2l2.render_image(pl.two_lobe_field_fn, ident)
    h, w = sz.equirect
    th_row = (h - 0.5) * np.pi / h
    ph_row = (np.arange(w) + 0.5) * 2 * np.pi / w
    inp.pole_truth = pl.two_lobe_field_fn(np.full(w, th_row), ph_row)
    inp.sweep_seed = int(rng.integers(2 ** 31))
    return inp


def _warm_caches(inp):
    """Fill the bake's caches (visibility basis, Gaunt tensors) the way
    ``pprt_precompute`` does; returns the cold ``shadow_expand`` time."""
    m, sz = inp.mods, inp.sizes
    l_vis = 2 * sz.l_high
    grid = m.geom.gauss_legendre_grid(l_vis)
    vis = m.operators.visibility_project(
        lambda dirs: m.operators.visibility_from_spheres(OCCLUDERS, dirs), l_vis, grid)
    t0 = time.perf_counter()
    m.operators.shadow_expand(vis, sz.l_high)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# PRT: bake once, relight per frame
# ---------------------------------------------------------------------------

def _record_finite(r):
    arrays = [r.matrix_low.matrix, r.conv_residual]
    if r.conv_high is not None:
        arrays += [getattr(r.conv_high, name) for name in
                   ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3",
                    "kiso", "kconj")]
    return finite(*arrays)


def _relight_frame(m, records, lighting, R, view):
    light = m.psh.psh_rotate_coeffs(lighting, R)
    return light, m.pipeline.pprt_shade(records, light, view)


def _spread(counts):
    """Task kinds ordered so that each kind is spread evenly: the i-th of the
    c tasks of a kind sits at (i + 0.5) / c."""
    slots = [((i + 0.5) / c, kind) for kind, c in counts.items() for i in range(c)]
    return [kind for _, kind in sorted(slots)]


def pprt_ops(rec: Recorder, inp: Inputs):
    """Project the material and bake one vertex per operation; once the relit
    vertices are baked, spread the other bakes, projections and relight
    frames evenly.  Yields after each timed operation."""
    m, sz = inp.mods, inp.sizes
    grid = m.geom.gauss_legendre_grid(max(12, 2 * sz.l_high))
    vis_grid = m.geom.gauss_legendre_grid(2 * sz.l_high)
    no_tris = np.zeros((0, 3), dtype=int)
    records = {}
    material = None

    def project_material():
        op = rec.run("material_project_s", m.operators.operator_project,
                     inp.material, sz.l_high, grid)
        rec.counts["grid_points"] += grid.theta_nodes.size * grid.n_phi
        if not op.failed and not finite(op.result.matrix):
            rec.reject(op, "non-finite material matrix")
        return None if op.failed else op.result

    def bake(k):
        if material is None:
            rec.skip("bake_ms_per_vertex", "no material matrix")
            return
        v = inp.vertex_ids[k]
        sub = m.pipeline.Mesh(inp.mesh.vertices[[v]], inp.mesh.normals[[v]], no_tris)
        op = rec.run("bake_ms_per_vertex", m.pipeline.pprt_precompute, sub, material,
                     OCCLUDERS, sz.l_low, sz.l_high, scale=1e3)
        rec.counts["vertices_baked"] += 1
        rec.counts["grid_points"] += vis_grid.theta_nodes.size * vis_grid.n_phi
        if op.failed:
            return
        if len(op.result) == 1 and _record_finite(op.result[0]):
            records[k] = op.result[0]
        else:
            rec.reject(op, "missing or non-finite transfer record")

    n = sz.relight_vertices

    def relight(k):
        if any(j not in records for j in range(n)):
            rec.skip("relight_ms_per_vertex", "bake failed")
            return
        op = rec.run("relight_ms_per_vertex", _relight_frame, m,
                     [records[j] for j in range(n)], inp.lighting, inp.rotations[k],
                     inp.view[:n], scale=1e3 / n)
        rec.counts["frames_shaded"] += 1
        if op.failed:
            return
        light, out = op.result
        if out.shape != (n, 4) or not finite(out):
            rec.reject(op, "missing or non-finite shaded output")
            return
        # oracle: brute-force angular shading of one seeded vertex
        j = int(inp.check_vertices[k])
        ref = m.pipeline.shade_reference(inp.mesh, int(inp.vertex_ids[j]), inp.material,
                                         OCCLUDERS, light, inp.view[j], band=sz.ref_band)
        if not finite(out[j] - ref):
            rec.reject(op, "non-finite error against shade_reference")

    material = project_material()
    yield
    for k in range(n):
        bake(k)
        yield
    bakes, frames = iter(range(n, sz.bake_vertices)), iter(range(sz.frames))
    for kind in _spread({"bake": sz.bake_vertices - n, "frame": sz.frames,
                         "material": sz.material_reps - 1}):
        if kind == "bake":
            bake(next(bakes))
        elif kind == "frame":
            relight(next(frames))
        else:
            material = project_material() or material
        yield
    if records:
        rec.values["conv_residual_max"] = max(r.conv_residual for r in records.values())

    # pprt_rmse: the fixed probe (criterion 11's lighting on the first
    # PROBE_VERTICES baked vertices), so it is deterministic
    probe = range(min(PROBE_VERTICES, sz.bake_vertices))
    if all(j in records for j in probe):
        rec.attempted += 1
        ids = inp.vertex_ids[probe]
        out = m.pipeline.pprt_shade([records[j] for j in probe], inp.probe_lighting,
                                    inp.view[probe])
        ref = np.array([m.pipeline.shade_reference(
            inp.mesh, int(v), inp.material, OCCLUDERS, inp.probe_lighting,
            inp.view[j], band=sz.ref_band) for j, v in zip(probe, ids)])
        rmse = float(np.sqrt(np.mean((out - ref) ** 2)))
        if math.isfinite(rmse):
            rec.values["pprt_rmse"] = rmse
        else:
            rec.failures.append("pprt_rmse: non-finite probe error")


# ---------------------------------------------------------------------------
# sphere ops: the file-based CLI chain
# ---------------------------------------------------------------------------

def _band_norms(c):
    """Per-l norms of s0, s3 and spin2; rotations preserve each of them."""
    sh_l = np.repeat(np.arange(c.l_max + 1), 2 * np.arange(c.l_max + 1) + 1)
    s2_l = sh_l[sh_l >= 2]
    return np.concatenate([np.bincount(sh_l, c.s0 ** 2), np.bincount(sh_l, c.s3 ** 2),
                           np.bincount(s2_l, np.abs(c.spin2) ** 2)])


def sphere_ops(rec: Recorder, inp: Inputs, workdir: str):
    """synth once, then project -> rotate -> convolve -> reconstruct through
    files per chain, each chain with its own seeded rotation.  Yields after
    each CLI call."""
    m, sz = inp.mods, inp.sizes
    L = sz.sphere_lmax
    grid = m.geom.gauss_legendre_grid(max(L, 9))      # the CLI default grid
    points = grid.theta_nodes.size * grid.n_phi
    sample = np.random.default_rng(0).choice(points, min(points, 64), replace=False)
    th_s, ph_s = (a.ravel()[sample] for a in grid.angles())
    chain_metrics = ("project_ms", "rotate_ms", "convolve_ms", "reconstruct_ms")
    env = os.path.join(workdir, "env.s4em")

    op = rec.run("synth_ms", cli_call, m.cli, ["synth", "band-limited-random", "--lmax", L,
                                               "--seed", inp.env_seed, env], scale=1e3)
    rec.counts["grid_points"] += points
    if not op.failed and not finite(m.io.load_stokes_field(env).data):
        rec.reject(op, "non-finite synthesized map")
    yield
    if op.failed:
        for _ in inp.chain_angles:
            for metric in chain_metrics:
                rec.skip(metric, "synth failed")
        return
    synthesized = m.pipeline.random_psh_coeffs(L, inp.env_seed).flat()
    kernel = m.pconv.kernel_coeffs(_pi_minus_theta, L)

    for i, angles in enumerate(inp.chain_angles):
        coeff, rot, conv, back = paths = [
            os.path.join(workdir, f"{stem}{i}.{ext}") for stem, ext in
            (("env", "psh4"), ("rot", "psh4"), ("conv", "psh4"), ("back", "s4em"))]
        state = {}
        R = m.geom.rotation_zyz(*angles)

        def check_project():
            c = state["coeff"] = m.io.load_psh_coeffs(coeff)
            if not coeffs_finite(c):
                return "non-finite coefficients"
            err = np.abs(c.flat() - synthesized).max()
            # the float32 map payload bounds the projection error
            if err > 1e-5 * max(1.0, np.abs(synthesized).max()):
                return f"projection differs from the synthesized coefficients by {err:.2e}"
            return None

        def check_rotate():
            r = state["rot"] = m.io.load_psh_coeffs(rot)
            if not coeffs_finite(r):
                return "non-finite coefficients"
            c = state["coeff"]
            if i == 0:      # the round trip costs one more L=32 rotation
                err = np.abs(m.psh.psh_rotate_coeffs(r, R.T).flat() - c.flat()).max()
                what = "rotate-back round trip error"
            else:
                err = np.abs(_band_norms(r) - _band_norms(c)).max()
                what = "per-band norm change"
            if err > 1e-12 * max(1.0, np.abs(c.flat()).max()):
                return f"{what} {err:.2e}"
            return None

        def check_convolve():
            g = state["conv"] = m.io.load_psh_coeffs(conv)
            if not coeffs_finite(g):
                return "non-finite coefficients"
            r = state["rot"]
            if i == 0:      # criterion 4's angular oracle at seeded directions
                th, ph = inp.oracle_theta, inp.oracle_phi
                ang = m.pconv.pconv_angular(_pi_minus_theta, r, th, ph)
                err = np.abs(ang - m.psh.psh_reconstruct(g, th, ph)).max()
                if not err < 1e-6:
                    return f"pconv_apply differs from pconv_angular by {err:.2e}"
            expect = m.pconv.pconv_apply(kernel, r).flat()
            err = np.abs(g.flat() - expect).max()
            if not err <= 1e-12 * max(1.0, np.abs(expect).max()):
                return f"CLI output differs from pconv_apply by {err:.2e}"
            return None

        def check_reconstruct():
            f = m.io.load_stokes_field(back)
            rec.counts["grid_points"] += points
            if not finite(f.data):
                return "non-finite reconstructed map"
            expect = m.psh.psh_reconstruct(state["conv"], th_s, ph_s)
            err = np.abs(f.data.reshape(-1, 4)[sample] - expect).max()
            if err > 1e-5 * max(1.0, np.abs(expect).max()):
                return f"reconstructed map differs by {err:.2e}"
            return None

        a, b, g = angles
        steps = [
            (["project", "--lmax", L, env, coeff], check_project),
            (["rotate", f"--rotation={a!r},{b!r},{g!r}", coeff, rot], check_rotate),
            (["convolve", "--kernel", "builtin:pi-minus-theta", rot, conv], check_convolve),
            (["reconstruct", conv, back], check_reconstruct),
        ]
        for n, (metric, (argv, check)) in enumerate(zip(chain_metrics, steps)):
            op = rec.run(metric, cli_call, m.cli, argv, scale=1e3)
            if not op.failed:
                problem = check()
                if problem:
                    rec.reject(op, problem)
            yield
            if op.failed:
                for later in chain_metrics[n + 1:]:
                    rec.skip(later, f"{metric} failed")
                break
        for p in paths:
            if os.path.exists(p):
                os.remove(p)
    os.remove(env)


# ---------------------------------------------------------------------------
# S2L2 images: cubemap -> equirect resampling and the validation protocol
# ---------------------------------------------------------------------------

def _render_cube(m, views):
    return [m.s2l2.render_image(m.pipeline.two_lobe_field_fn, v) for v in views]


def _validate(s2l2, n, eps, pairs, seed):
    res = s2l2.perturbation_protocol(n, eps)
    return res, s2l2.rotation_invariance_sweep(n, n_pairs=pairs, seed=seed)


def _pole_dev(img, truth):
    """Criterion 12: last-row deviation of the linear pair, relative to scale."""
    scale = np.abs(truth[:, 1:3]).max()
    return float(np.abs(img.data[-1][:, 1:3] - truth[:, 1:3]).max() / scale)


def s2l2_ops(rec: Recorder, inp: Inputs):
    """Identity resample, then cubemap renders with both resamplers, with
    the validation protocol runs spread between them.  Yields after each
    timed operation."""
    m, sz = inp.mods, inp.sizes
    s2l2 = m.s2l2
    ident = inp.identity_image
    op = rec.run("resample_identity_ms", s2l2.resample, [ident], ident.view, "s2l2",
                 scale=1e3)
    if not op.failed and not np.array_equal(op.result.data, ident.data):
        rec.reject(op, "identity resample is not bit-exact")
    yield

    validate_at = set(np.linspace(0, sz.resamples, sz.validate_reps, endpoint=False)
                      .round().astype(int))
    n_pix = sz.equirect[0] * sz.equirect[1]
    devs = []
    for k in range(sz.resamples):
        if k in validate_at:
            yield from _validate_op(rec, s2l2, inp)
        op = rec.run("render_ms", _render_cube, m, inp.cube_views, scale=1e3)
        if op.failed or not all(finite(img.data) for img in op.result):
            rec.reject(op, "non-finite cubemap")
            rec.skip("resample_s2l2_ms", "render failed")
            rec.skip("resample_bilinear_ms", "render failed")
            continue
        yield
        cube = op.result
        outs = {}
        for metric, method in (("resample_s2l2_ms", "s2l2"),
                               ("resample_bilinear_ms", "component-bilinear")):
            op = rec.run(metric, s2l2.resample, cube, inp.dst, method, scale=1e3)
            rec.counts["grid_points"] += n_pix
            if not op.failed:
                if op.result.valid.all() and finite(op.result.data):
                    outs[method] = op, _pole_dev(op.result, inp.pole_truth)
                else:
                    rec.reject(op, "uncovered or non-finite pixels")
            yield
        if "s2l2" in outs:
            op, dev = outs["s2l2"]
            devs.append(dev)
            if not dev < 0.05:
                rec.reject(op, f"pole deviation {dev:.3f} >= 0.05")
            elif "component-bilinear" in outs and not outs["component-bilinear"][1] > dev:
                rec.reject(op, "pole deviation not below the naive method's")
    if devs:
        rec.values["resample_pole_dev"] = float(np.median(devs))


def _validate_op(rec, s2l2, inp):
    sz = inp.sizes
    op = rec.run("s2l2_validate_s", _validate, s2l2, sz.validate_n,
                 sz.validate_eps, sz.sweep_pairs, inp.sweep_seed)
    if not op.failed:
        res, worst = op.result
        smax = res["s2l2_max"]
        analytic = 2.0 * math.sin(sz.validate_eps)
        problems = []
        if not smax.max() - smax.min() < 1e-12:
            problems.append("perturbation spread >= 1e-12")
        if not np.abs(smax - analytic).max() < 1e-12:
            problems.append("perturbation distance off 2 sin(eps)")
        if not res["frame_max"].max() > 1.9:
            problems.append("theta-phi baseline max <= 1.9")
        if not worst < 1e-11:
            problems.append(f"rotation-invariance error {worst:.2e} >= 1e-11")
        if problems:
            rec.reject(op, "; ".join(problems))
    yield


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure_all(rec: Recorder, inp: Inputs, workdir: str):
    """Interleave the three uses: always advance the one furthest behind its
    nominal share of the run, so each finishes at about the same time."""
    uses = {"pprt": pprt_ops(rec, inp), "sphere": sphere_ops(rec, inp, workdir),
            "s2l2": s2l2_ops(rec, inp)}
    planned = planned_seconds(inp.sizes)
    spent = dict.fromkeys(uses, 0.0)
    while uses:
        name = min(uses, key=lambda u: spent[u] / planned[u])
        t0 = time.perf_counter()
        try:
            next(uses[name])
        except StopIteration:
            del uses[name]
        except Exception as e:      # a check could not even read an output
            rec.failures.append(f"{name}: check raised {type(e).__name__}: {e}")
            del uses[name]
        spent[name] += time.perf_counter() - t0
