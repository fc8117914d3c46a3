"""Command line interface.

Subcommands: project, reconstruct, rotate, convolve, resample, s2l2-validate,
synth.  File formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np


def _parse_numbers(flag, text, count):
    """count finite numbers given as a,b,...; otherwise a ValueError naming
    the flag."""
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError:
        vals = np.array([np.nan])
    if vals.size != count or not np.isfinite(vals).all():
        raise ValueError(f"{flag} needs {count} finite numbers separated by commas, "
                         f"got {text!r}")
    return vals


def _load_kernel(spec, l_max):
    from . import pconv
    if spec == "builtin:pi-minus-theta":
        return pconv.kernel_coeffs(lambda th: (np.pi - th) * np.eye(4), l_max)
    from .io import load_kernel_coeffs
    kc = load_kernel_coeffs(spec)
    if kc.l_max < l_max:
        raise ValueError(f"kernel file band {kc.l_max} below required {l_max}")
    return kc


def cmd_project(args):
    from . import psh
    from .io import load_stokes_field, save_psh_coeffs
    field = load_stokes_field(args.input)
    coeffs = psh.psh_project(field, args.lmax)
    save_psh_coeffs(args.output, coeffs)
    print(f"projected {args.input} -> {args.output} (l_max={args.lmax})")
    return 0


def cmd_reconstruct(args):
    from . import psh
    from .geom import gauss_legendre_grid
    from .io import load_psh_coeffs, save_stokes_field
    coeffs = load_psh_coeffs(args.input)
    if args.zero_s3:
        coeffs.s3[:] = 0.0
    band = args.grid if args.grid is not None else max(coeffs.l_max, 9)
    field = psh.psh_reconstruct_field(coeffs, gauss_legendre_grid(band))
    save_stokes_field(args.output, field)
    print(f"reconstructed {args.input} -> {args.output} (grid band {band})")
    return 0


def cmd_rotate(args):
    from . import psh
    from .geom import rotation_zyz
    from .io import load_psh_coeffs, save_psh_coeffs
    coeffs = load_psh_coeffs(args.input)
    R = rotation_zyz(*_parse_numbers("--rotation", args.rotation, 3))
    save_psh_coeffs(args.output, psh.psh_rotate_coeffs(coeffs, R))
    print(f"rotated {args.input} -> {args.output} (zyz {args.rotation})")
    return 0


def cmd_convolve(args):
    from . import pconv
    from .io import load_psh_coeffs, save_psh_coeffs
    coeffs = load_psh_coeffs(args.input)
    if args.zero_s3:
        coeffs.s3[:] = 0.0
    kc = _load_kernel(args.kernel, coeffs.l_max)
    save_psh_coeffs(args.output, pconv.pconv_apply(kc, coeffs))
    print(f"convolved {args.input} -> {args.output} (kernel {args.kernel})")
    return 0


_VIEW_KEYS = ("kind", "height", "width", "fov", "pose")


def _view_from_json(path):
    """The view in a JSON object with the keys height and width and, optionally,
    kind (default equirect), fov (degrees, default 90) and pose (3x3, default
    the identity); otherwise a ValueError names the file and the key."""
    from .s2l2 import ViewSpec
    with open(path) as f:
        try:
            spec = json.load(f)
        except ValueError as e:
            raise ValueError(f"{path}: not JSON: {e}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a view spec is a JSON object, got a {type(spec).__name__}")
    for key in spec:
        if key not in _VIEW_KEYS:
            raise ValueError(f"{path}: unknown view key {key!r}; the keys are "
                             f"{', '.join(_VIEW_KEYS)}")
    for key in ("height", "width"):
        if key not in spec:
            raise ValueError(f"{path}: the view key {key!r} is missing")
    fov = spec.get("fov", 90.0)
    if isinstance(fov, bool) or not isinstance(fov, (int, float)):
        raise ValueError(f"{path}: the view key 'fov' must be a number, got {fov!r}")
    try:
        return ViewSpec(spec.get("kind", "equirect"), spec["height"], spec["width"],
                        spec.get("pose", np.eye(3)), float(fov))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def cmd_resample(args):
    from .io import load_stokes_image, save_stokes_image
    from .s2l2 import resample
    sources = [load_stokes_image(p) for p in args.inputs]
    dst = _view_from_json(args.dst)
    method = "s2l2" if args.method == "s2l2" else "component-bilinear"
    img = resample(sources, dst, method)
    save_stokes_image(args.output, img)
    n_bad = int((~img.valid).sum())
    print(f"resampled {len(sources)} view(s) -> {args.output} "
          f"({method}; {n_bad} uncovered pixels)")
    return 0


def cmd_synth(args):
    from .io import save_stokes_field
    from .pipeline import synth_envmap
    field = synth_envmap(args.kind, l_max=args.lmax, seed=args.seed,
                         band=args.grid)
    save_stokes_field(args.output, field)
    print(f"synthesized {args.kind} -> {args.output}")
    return 0


def cmd_pprt(args):
    from .geom import normalize
    from .io import load_psh_coeffs
    from .pipeline import (load_obj, pprt_precompute, pprt_shade,
                           save_vertex_stokes, sphere_mesh)
    from .polar import synthetic_pbrdf

    cam = _parse_numbers("--camera", args.camera, 3)
    occluders = [(vals[:3], vals[3]) for vals in
                 (_parse_numbers("--occluder", spec, 4) for spec in args.occluder or [])]
    mesh = sphere_mesh() if args.mesh == "sphere" else load_obj(args.mesh)
    lighting = load_psh_coeffs(args.env)
    if lighting.l_max < args.lhigh:
        raise ValueError(f"environment band {lighting.l_max} below l_high {args.lhigh}")
    to_cam = cam[None, :] - mesh.vertices
    on_vertex = np.flatnonzero(~to_cam.any(axis=1))
    if on_vertex.size:
        raise ValueError(f"--camera {args.camera} sits on mesh vertex {on_vertex[0]}, "
                         "which has no view direction")
    view = normalize(to_cam)
    material = synthetic_pbrdf(roughness=args.roughness, ior=args.ior,
                               horizon_sharpness=0.15)
    records = pprt_precompute(mesh, material, occluders,
                              l_low=args.llow, l_high=args.lhigh)
    out = pprt_shade(records, lighting, view, zero_s3=args.zero_s3)
    save_vertex_stokes(args.out_csv, args.out_bin, mesh, out)
    resid = max((r.conv_residual for r in records), default=0.0)
    print(f"shaded {len(records)} vertices (l_low={args.llow}, l_high={args.lhigh}, "
          f"max convolution residual {resid:.2e}) -> {args.out_csv}, {args.out_bin}")
    return 0


def cmd_s2l2_validate(args):
    from .s2l2 import perturbation_protocol, rotation_invariance_sweep

    print(f"perturbation protocol: N={args.n}, 4 unit Stokes vectors each, "
          f"{args.eps} rad rotations about every Fibonacci axis")
    res = perturbation_protocol(args.n, args.eps)
    for name, key in (("s2l2", "s2l2"), ("theta-phi", "frame")):
        per_vec = res[f"{key}_max"]
        print(f"  {name:12s} per-vector max distance: "
              f"min={per_vec.min():.15f} max={per_vec.max():.15f} "
              f"spread={per_vec.max() - per_vec.min():.3e}")
        print(f"  {name:12s} all-sample mean distance: {res[f'{key}_all_mean']:.6f}")
    worst = rotation_invariance_sweep(args.n, n_pairs=args.pairs)
    print(f"rotation-invariance sweep: max |d(Rs,Rt) - d(s,t)| = {worst:.3e}")
    return 0


@functools.cache
def build_parser():
    """The one parser of the process: building it costs about a millisecond
    (every add_argument makes a HelpFormatter, which reads the terminal size),
    and parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(prog="polarsh",
                                description="Polarized spherical harmonics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("project", help="project an S4EM sphere map onto PSH")
    q.add_argument("--lmax", type=int, required=True)
    q.add_argument("input")
    q.add_argument("output")
    q.set_defaults(fn=cmd_project)

    q = sub.add_parser("reconstruct", help="reconstruct a PSH4 file to a sphere map")
    q.add_argument("--grid", type=int, default=None, help="quadrature grid band")
    q.add_argument("--zero-s3", action="store_true")
    q.add_argument("input")
    q.add_argument("output")
    q.set_defaults(fn=cmd_reconstruct)

    q = sub.add_parser("rotate", help="rotate PSH coefficients")
    q.add_argument("--rotation", required=True, metavar="a,b,g")
    q.add_argument("input")
    q.add_argument("output")
    q.set_defaults(fn=cmd_rotate)

    q = sub.add_parser("convolve", help="polarized spherical convolution")
    q.add_argument("--kernel", required=True,
                   help="PSHK file or builtin:pi-minus-theta")
    q.add_argument("--zero-s3", action="store_true")
    q.add_argument("input")
    q.add_argument("output")
    q.set_defaults(fn=cmd_convolve)

    q = sub.add_parser("resample", help="resample polarized images between views")
    q.add_argument("--method", choices=["s2l2", "naive"], default="s2l2")
    q.add_argument("--dst", required=True, help="destination view spec (JSON)")
    q.add_argument("--out", dest="output", required=True)
    q.add_argument("inputs", nargs="+")
    q.set_defaults(fn=cmd_resample)

    q = sub.add_parser("synth", help="write a synthetic polarized sphere map")
    q.add_argument("kind", choices=["sky-analytic", "band-limited-random",
                                    "two-lobe-polarized"])
    q.add_argument("--lmax", type=int, default=9)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--grid", type=int, default=None)
    q.add_argument("output")
    q.set_defaults(fn=cmd_synth)

    q = sub.add_parser("pprt", help="precompute and shade a mesh under a "
                                    "polarized environment (per-vertex output)")
    q.add_argument("--mesh", default="sphere", help="'sphere' or an OBJ path")
    q.add_argument("--env", required=True, help="PSH4 environment coefficients")
    q.add_argument("--llow", type=int, default=4)
    q.add_argument("--lhigh", type=int, default=9)
    q.add_argument("--roughness", type=float, default=0.5)
    q.add_argument("--ior", type=float, default=1.5)
    q.add_argument("--occluder", action="append", metavar="x,y,z,rad")
    q.add_argument("--camera", default="3,2,4")
    q.add_argument("--zero-s3", action="store_true")
    q.add_argument("--out-csv", required=True)
    q.add_argument("--out-bin", required=True)
    q.set_defaults(fn=cmd_pprt)

    q = sub.add_parser("s2l2-validate",
                       help="run the S2L2 perturbation/rotation tables")
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--eps", type=float, default=0.1)
    q.add_argument("--pairs", type=int, default=3)
    q.set_defaults(fn=cmd_s2l2_validate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # malformed inputs exit nonzero with a message
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
