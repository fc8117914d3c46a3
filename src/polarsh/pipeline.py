"""Desk-scale precomputed polarized radiance transfer.

Synthetic environment maps, a small mesh layer (OBJ subset + UV sphere), the
per-vertex precomputation chain (rotate material to the normal frame, shadow
by the visibility's pointwise-product operator, project the reflected high
band onto convolution coefficients), and runtime shading, plus the
brute-force angular reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import psh as P
from . import shscalar as sh
from .geom import (gauss_legendre_grid, normalize, rotation_align, sph_to_dir,
                   dir_to_sph, fibonacci_directions, frame_for_dir, frame_theta_phi)
from .io import _payload
from .operators import (PshCoeffMatrix, operator_apply, operator_project,
                        reflection_permutation_psh, shadow_expand,
                        visibility_from_spheres, visibility_project)
from .pconv import KC_FAMILIES, PolarConvKernelCoeffs, conv_project_operator, pconv_apply
from .polar import (StokesField, SyntheticPbrdf, stokes_field_from_function,
                    stokes_reframe)


# ---------------------------------------------------------------------------
# synthetic environment maps
# ---------------------------------------------------------------------------

def random_psh_coeffs(l_max: int, seed: int = 0, unpolarized=False) -> P.PshCoeffs:
    """Deterministic band-limited random coefficients (physical validity not
    enforced; intended as test data)."""
    rng = np.random.default_rng(seed)
    c = P.PshCoeffs(
        l_max,
        rng.normal(size=sh.sh_size(l_max)),
        np.zeros(P.spin2_size(l_max), dtype=complex) if unpolarized else
        rng.normal(size=P.spin2_size(l_max)) + 1j * rng.normal(size=P.spin2_size(l_max)),
        rng.normal(size=sh.sh_size(l_max)))
    return c


def _tangent_complex(anchor, th, ph):
    """Complex theta-phi components of the tangent projection of a fixed axis."""
    w = sph_to_dir(th, ph)
    t = anchor - np.einsum("...i,i->...", w, anchor)[..., None] * w
    F = frame_theta_phi(th, ph)
    return (np.einsum("...i,...i->...", t, F[..., :, 0])
            + 1j * np.einsum("...i,...i->...", t, F[..., :, 1]))


def two_lobe_field_fn(th, ph):
    """Closed-form polarized field with two anchored lobes.

    The linear pair is a sum of squared tangent projections of fixed axes, so
    it is a genuine smooth spin-2 field satisfying the pole double-rotation
    condition; s0 dominates the polarization magnitude everywhere.
    """
    th = np.asarray(th, dtype=float)
    ph = np.asarray(ph, dtype=float)
    a = np.array([1.0, 0.0, 0.0])
    b = normalize(np.array([0.0, 1.0, 1.0]))
    w = sph_to_dir(th, ph)
    st = _tangent_complex(a, th, ph) ** 2 + 0.5 * _tangent_complex(b, th, ph) ** 2
    s0 = 1.0 + (w @ a) ** 2 + 0.5 * (w @ b) ** 2
    zero = np.zeros_like(s0)
    return np.stack([s0, st.real, st.imag, zero], axis=-1)


def sky_field_fn(th, ph, sun_dir=(0.6, 0.3, 0.74), turbidity=0.35, dop_max=0.6):
    """Analytic clear-sky-like Stokes field (valid range by construction)."""
    th = np.asarray(th, dtype=float)
    ph = np.asarray(ph, dtype=float)
    s = normalize(np.asarray(sun_dir, dtype=float))
    w = sph_to_dir(th, ph)
    cg = np.clip(w @ s, -1.0, 1.0)
    s0 = 0.25 + np.exp((cg - 1.0) / turbidity) + 0.35 * (1.0 + w[..., 2]) / 2.0
    dop = dop_max * (1.0 - cg ** 2) / (1.0 + cg ** 2)
    u = np.cross(np.broadcast_to(s, w.shape), w)
    nrm = np.linalg.norm(u, axis=-1, keepdims=True)
    u = u / np.where(nrm > 1e-12, nrm, 1.0)
    F = frame_theta_phi(th, ph)
    ut = (np.einsum("...i,...i->...", u, F[..., :, 0])
          + 1j * np.einsum("...i,...i->...", u, F[..., :, 1]))
    stl = dop * s0 * ut ** 2
    zero = np.zeros_like(s0)
    return np.stack([s0, stl.real, stl.imag, zero], axis=-1)


def synth_envmap(kind: str, l_max: int = 9, seed: int = 0, band: int | None = None) -> StokesField:
    """Deterministic synthetic Stokes environment maps on a quadrature grid."""
    grid = gauss_legendre_grid(band if band is not None else max(l_max, 9))
    if kind == "band-limited-random":
        if grid.band < l_max:
            raise ValueError(f"grid band {grid.band} cannot hold coefficients of l_max {l_max}")
        c = random_psh_coeffs(l_max, seed)
        return P.psh_reconstruct_field(c, grid)
    if kind == "sky-analytic":
        return stokes_field_from_function(sky_field_fn, grid)
    if kind == "two-lobe-polarized":
        return stokes_field_from_function(two_lobe_field_fn, grid)
    raise ValueError(f"unknown environment kind {kind!r}")


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass
class Mesh:
    vertices: np.ndarray    # (N, 3)
    normals: np.ndarray     # (N, 3) unit
    triangles: np.ndarray   # (M, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.normals = np.asarray(self.normals, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        for name, rows in (("vertices", "N"), ("triangles", "M")):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[1] != 3:
                raise ValueError(f"mesh {name} have shape {shape}, expected ({rows}, 3)")
        if self.normals.shape != self.vertices.shape:
            raise ValueError(f"mesh has normals of shape {self.normals.shape} for vertices "
                             f"of shape {self.vertices.shape}")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=-1))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} is not finite: {self.vertices[bad[0]]}")
        bad = np.argwhere((self.triangles < 0) | (self.triangles >= len(self.vertices)))
        if bad.size:
            t, corner = bad[0]
            raise ValueError(f"triangle {t} has vertex index {self.triangles[t, corner]}, "
                             f"out of range for {len(self.vertices)} vertices")
        n = np.linalg.norm(self.normals, axis=-1)
        bad = np.flatnonzero(~(np.isfinite(n) & (n > 0.0)))
        if bad.size:
            raise ValueError(f"normal {bad[0]} is zero or not finite: {self.normals[bad[0]]}")
        if np.any(np.abs(n - 1.0) > 1e-6):
            self.normals = self.normals / n[:, None]


def sphere_mesh(n_rings: int = 18, n_segments: int = 30, radius: float = 1.0) -> Mesh:
    """UV sphere; default resolution gives 512 vertices."""
    if n_rings < 2:
        raise ValueError(f"sphere_mesh needs n_rings >= 2, got {n_rings}")
    if n_segments < 3:
        raise ValueError(f"sphere_mesh needs n_segments >= 3, got {n_segments}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"sphere_mesh needs a finite radius > 0, got {radius}")
    verts = [np.array([0.0, 0.0, radius])]
    for i in range(1, n_rings):
        t = np.pi * i / n_rings
        for j in range(n_segments):
            p = 2.0 * np.pi * j / n_segments
            verts.append(radius * sph_to_dir(t, p))
    verts.append(np.array([0.0, 0.0, -radius]))
    verts = np.asarray(verts)
    tris = []
    def ring(i, j):
        return 1 + (i - 1) * n_segments + (j % n_segments)
    for j in range(n_segments):
        tris.append([0, ring(1, j), ring(1, j + 1)])
    for i in range(1, n_rings - 1):
        for j in range(n_segments):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append([a, c, b])
            tris.append([b, c, d])
    last = len(verts) - 1
    for j in range(n_segments):
        tris.append([last, ring(n_rings - 1, j + 1), ring(n_rings - 1, j)])
    return Mesh(verts, verts / radius, np.asarray(tris))


def _obj_index(tok, count, lineno):
    """1-based or negative (relative) OBJ index -> 0-based, checked against
    the count of entries read so far."""
    try:
        i = int(tok)
    except ValueError:
        raise ValueError(f"OBJ line {lineno}: index {tok!r} is not an integer") from None
    j = i - 1 if i > 0 else count + i
    if not 0 <= j < count:
        raise ValueError(f"OBJ line {lineno}: index {i} out of range for {count} entries")
    return j


def load_obj(path) -> Mesh:
    """ASCII OBJ subset: v / vn / f (v or v//vn indices, negative = relative).

    Faces with more than three vertices are triangulated as fans from their
    first vertex.  Raises ValueError for a v/vn line without three finite
    numbers, a face with fewer than three vertices, an index that is not an
    integer or is out of range, a file with no face, or a vertex without a
    usable normal (no face uses it, its faces are degenerate or its vn is
    zero).
    """
    verts, norms, faces, face_norms = [], [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] in ("v", "vn"):
                try:
                    xyz = [float(x) for x in parts[1:4]]
                except ValueError:
                    xyz = []
                if len(xyz) < 3 or not np.isfinite(xyz).all():
                    raise ValueError(f"OBJ line {lineno}: {parts[0]} needs three finite numbers")
                (verts if parts[0] == "v" else norms).append(xyz)
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise ValueError(f"OBJ line {lineno}: a face needs at least 3 vertices")
                idx = []
                nidx = []
                for tok in parts[1:]:
                    fields = tok.split("/")
                    idx.append(_obj_index(fields[0], len(verts), lineno))
                    if len(fields) == 3 and fields[2]:
                        nidx.append(_obj_index(fields[2], len(norms), lineno))
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
                    face_norms.append([nidx[0], nidx[k], nidx[k + 1]]
                                      if len(nidx) == len(idx) else None)
    if not faces:
        raise ValueError("OBJ file has no faces")
    verts = np.asarray(verts)
    tris = np.asarray(faces, dtype=int).reshape(-1, 3)
    vnorm = np.zeros_like(verts)
    if norms and all(fn is not None for fn in face_norms):
        norms = np.asarray(norms)
        for tri, fn in zip(tris, face_norms):
            for v, ni in zip(tri, fn):
                vnorm[v] = norms[ni]
    else:
        # area-weighted face normals
        for tri in tris:
            a, b, c = verts[tri]
            fn = np.cross(b - a, c - a)
            for v in tri:
                vnorm[v] += fn
    length = np.linalg.norm(vnorm, axis=-1)
    bad = np.flatnonzero(~(np.isfinite(length) & (length > 0.0)))
    if bad.size:
        raise ValueError(f"OBJ vertex {bad[0] + 1} has no usable normal: no face uses it, "
                         "its faces are degenerate or its vn is zero")
    return Mesh(verts, vnorm / length[:, None], tris)


def save_obj(path, mesh: Mesh):
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for n in mesh.normals:
            f.write(f"vn {float(n[0])!r} {float(n[1])!r} {float(n[2])!r}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0]+1}//{t[0]+1} {t[1]+1}//{t[1]+1} {t[2]+1}//{t[2]+1}\n")


def ray_visibility(mesh: Mesh, vertex_index: int, dirs, eps=1e-6):
    """Brute-force triangle occlusion test from a vertex (Moller-Trumbore)."""
    origin = mesh.vertices[vertex_index] + eps * mesh.normals[vertex_index]
    dirs = np.asarray(dirs, dtype=float)
    vis = np.ones(dirs.shape[:-1])
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    flat = dirs.reshape(-1, 3)
    hit = np.zeros(flat.shape[0], dtype=bool)
    for d_idx in range(flat.shape[0]):
        d = flat[d_idx]
        p = np.cross(d, e2)
        det = np.einsum("ij,ij->i", e1, p)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origin - v0
        u = np.einsum("ij,ij->i", tvec, p) * inv
        q = np.cross(tvec, e1)
        v = q @ d * inv
        t = np.einsum("ij,ij->i", e2, q) * inv
        hit[d_idx] = np.any(ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > eps))
    vis.reshape(-1)[hit] = 0.0
    return vis


# ---------------------------------------------------------------------------
# PPRT precompute and shade
# ---------------------------------------------------------------------------

@dataclass
class TransferRecord:
    """Per-vertex transfer data in the vertex's local frame.

    Every family of conv_high is zero at l <= l_low, and the convolution
    theorem does not mix bands, so conv_high applies to the whole local
    lighting and adds only the bands above l_low.
    """
    normal: np.ndarray
    rotation: np.ndarray              # local -> world
    matrix_low: PshCoeffMatrix        # bands l <= l_low
    conv_high: PolarConvKernelCoeffs | None
    l_low: int
    l_high: int
    conv_residual: float = 0.0


def _reflected_blocks(brdf: np.ndarray, l_max: int):
    """The z-flipped transfer's factors, one per |m| column class.

    One pass (brdf != 0) @ onehot(|m|) counts each row's nonzeros per class
    of columns; class k keeps its rows with any.  An isotropic material
    couples only |m_i| = |m_o| (Ramamoorthi & Hanrahan 2001), so class k
    keeps the rows of |m| = k; a dense material keeps every row.  Returns
    (dest, block, cols) per class with R (brdf @ V) = sum over classes of
    block @ V[cols] added to rows dest, where R = reflection_permutation_psh
    (which keeps |m|) is folded in: dest are the flipped rows and the flip's
    signs scale the block's rows.
    """
    m_abs = np.abs(P.psh_layout(l_max).lmp[:, 1])
    onehot = (m_abs[:, None] == np.arange(l_max + 1)).astype(np.float32)
    # counts of at most n are exact in float32
    counts = (brdf != 0).astype(np.float32) @ onehot
    flip_rows, flip_signs = reflection_permutation_psh(l_max)
    blocks = []
    for k in range(l_max + 1):
        rows = np.flatnonzero(counts[:, k])
        cols = np.flatnonzero(m_abs == k)
        dest = flip_rows[rows]
        blocks.append((dest, flip_signs[dest][:, None] * brdf[np.ix_(rows, cols)], cols))
    return blocks


def _reflected_product(blocks, V: np.ndarray) -> np.ndarray:
    """R (brdf @ V) from the _reflected_blocks of brdf."""
    out = np.zeros(V.shape)
    for dest, block, cols in blocks:
        out[dest] += block @ V[cols]
    return out


def pprt_precompute(mesh: Mesh, material: SyntheticPbrdf | PshCoeffMatrix,
                    occluders=(), l_low: int = 4, l_high: int = 9,
                    use_ray_visibility: bool = False, n_rays: int = 2000):
    """Build per-vertex transfer records.

    material is either the local-frame pBRDF callable (projected here) or an
    already-projected coefficient matrix in the local frame (normal along z):
    one finite (n, n) matrix of band at least l_high, whose leading l_high
    block is used; a stacked or non-finite matrix raises ValueError.
    Visibility comes from analytic sphere occluders by default, or from
    casting n_rays Fibonacci rays against the mesh itself.

    Per vertex the transfer is the material times the visibility's shadow
    operator, formed already z-flipped (the high band is fitted as the
    reflected transfer's convolution) one |m| column class at a time: the
    material's exact zeros, found once per call, give each class its rows
    (see _reflected_blocks).  Nothing is dropped: a dense material takes
    full row sets and gets the dense product, summed by class.
    """
    if l_low > l_high:
        raise ValueError("l_low must not exceed l_high")
    if isinstance(material, PshCoeffMatrix):
        if material.matrix.ndim != 2:
            raise ValueError("material must be one coefficient matrix, got shape "
                             f"{material.matrix.shape}")
        if material.l_max < l_high:
            raise ValueError("material matrix band below l_high")
        if not np.isfinite(material.matrix).all():
            bad = np.argwhere(~np.isfinite(material.matrix))[0]
            raise ValueError(f"non-finite material entry at (row, col) = {tuple(bad.tolist())}")
        # canonical order is band-major: the leading block holds l <= l_high
        n_high = P.psh_size(l_high)
        brdf = material.matrix[:n_high, :n_high]
    else:
        grid = gauss_legendre_grid(max(12, 2 * l_high))
        brdf = operator_project(material, l_high, grid).matrix
    blocks = _reflected_blocks(brdf, l_high)
    flip_rows, flip_signs = reflection_permutation_psh(l_low)
    l_vis = 2 * l_high
    vis_grid = gauss_legendre_grid(l_vis)
    z = np.array([0.0, 0.0, 1.0])
    if use_ray_visibility:
        # Monte-Carlo projection from Fibonacci ray casts; the local ray
        # directions, and so their basis, are the same at every vertex
        dirs_f = fibonacci_directions(n_rays)
        B = sh.sh_basis_real(l_vis, *dir_to_sph(dirs_f))

    def build(i):
        n = mesh.normals[i]
        Rv = rotation_align(z, n)
        # project the visibility directly in the vertex's local frame:
        # V_local(w) = V_world(Rv w)
        if use_ray_visibility:
            world = dirs_f @ Rv.T
            vals = (ray_visibility(mesh, i, world)
                    * visibility_from_spheres(occluders, world))
            v_local = sh.ShCoeffs(l_vis, "real",
                                  (4.0 * np.pi / n_rays) * (B.T @ vals))
        else:
            v_local = visibility_project(
                lambda dirs: visibility_from_spheres(occluders, dirs @ Rv.T),
                l_vis, vis_grid)
        reflected = _reflected_product(blocks, shadow_expand(v_local, l_high).matrix)
        # the flip is its own inverse and keeps l: the low band of the
        # transfer is the flipped low band of the reflected one
        mat_low = PshCoeffMatrix(l_low, flip_signs[:, None]
                                 * reflected[flip_rows, :flip_rows.size])
        conv = None
        resid = 0.0
        if l_high > l_low:
            kc, resid, _ = conv_project_operator(PshCoeffMatrix(l_high, reflected))
            for name in KC_FAMILIES:
                getattr(kc, name)[:l_low + 1] = 0.0
            conv = kc
        return TransferRecord(n, Rv, mat_low, conv, l_low, l_high, resid)

    return [build(i) for i in range(len(mesh.vertices))]


def pprt_shade(records, lighting: P.PshCoeffs, view_dirs, zero_s3=False):
    """Per-vertex outgoing Stokes components under world theta-phi frames.

    view_dirs (n, 3) are world-space outgoing directions (vertex toward eye),
    one per record.  The low band goes through the transfer matrix and is
    evaluated at the local view direction; the high band goes through the
    convolution coefficients of the reflected transfer and is evaluated at
    the z-flipped local view direction.  Records that share (l_low, l_high)
    are shaded in one batched pass; an empty list gives a (0, 4) array.
    """
    view_dirs = np.asarray(view_dirs, dtype=float)
    if view_dirs.shape != (len(records), 3):
        raise ValueError(f"view_dirs has shape {view_dirs.shape}, expected "
                         f"({len(records)}, 3): one direction per record")
    if not records:
        return np.zeros((0, 4))
    l_top = max(rec.l_high for rec in records)
    if lighting.l_max < l_top:
        raise ValueError(f"lighting band {lighting.l_max} below the records' l_high {l_top}")
    groups = {}
    for i, rec in enumerate(records):
        high = rec.conv_high is not None and rec.l_high > rec.l_low
        groups.setdefault((rec.l_low, rec.l_high, high), []).append(i)
    comps = np.empty((len(records), 4))
    frames = np.empty((len(records), 3, 3))
    for (l_low, l_high, high), idx in groups.items():
        comps[idx], frames[idx] = _shade_group([records[i] for i in idx], l_low, high,
                                               lighting.truncated(l_high), view_dirs[idx])
    out = stokes_reframe(comps, frames, frame_for_dir(view_dirs))
    if zero_s3:
        out[:, 3] = 0.0
    return out


def _shade_group(records, l_low, high, lighting, view_dirs):
    """Local Stokes components and local theta-phi frames (in world axes) at
    the view directions of records that share (l_low, lighting.l_max)."""
    n, l_high = len(records), lighting.l_max
    Rv = np.stack([rec.rotation for rec in records])
    light = P.psh_rotate_coeffs(lighting, Rv.transpose(0, 2, 1)).flat()
    wo = np.einsum("nji,nj->ni", Rv, view_dirs)
    # one basis at the view directions and at their z-flips
    th, ph = dir_to_sph(np.concatenate([wo, wo * [1.0, 1.0, -1.0]]))
    br, b2 = sh.sh_basis_real(l_high, th, ph), P.s2sh_basis(l_high, th, ph)
    matrices = PshCoeffMatrix(l_low, np.stack([rec.matrix_low.matrix for rec in records]))
    low = operator_apply(matrices, P.PshCoeffs.from_flat(l_low, light[:, :P.psh_size(l_low)]))
    comps = _reconstruct_rows(low, br[:n], b2[:n])
    if high:
        kc = PolarConvKernelCoeffs(l_high, *(
            np.stack([getattr(rec.conv_high, name)[:l_high + 1] for rec in records])
            for name in KC_FAMILIES))
        g = pconv_apply(kc, P.PshCoeffs.from_flat(l_high, light))
        comps += _reconstruct_rows(g, br[n:], b2[n:]) * [1.0, 1.0, -1.0, 1.0]
    return comps, Rv @ frame_theta_phi(th[:n], ph[:n])


def _reconstruct_rows(coeffs: P.PshCoeffs, br, b2):
    """Stokes components of coefficient row i at basis row i, from the real
    and spin-2 bases of any band at least coeffs.l_max."""
    def dot(basis, c):
        return np.einsum("ij,ij->i", basis[:, :c.shape[-1]], c)
    lin = dot(b2, coeffs.spin2)
    return np.stack([dot(br, coeffs.s0), lin.real, lin.imag, dot(br, coeffs.s3)], axis=-1)


def save_vertex_stokes(csv_path, bin_path, mesh: Mesh, values):
    """Write per-vertex shading output as CSV plus raw float64.

    The CSV carries index, position, normal, and the four Stokes components;
    the binary file is the (n, 4) component array, little-endian row-major.
    Values of another shape, or non-finite ones, raise ValueError before
    either file is opened.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(mesh.vertices), 4):
        raise ValueError(f"vertex Stokes values have shape {values.shape}, expected "
                         f"({len(mesh.vertices)}, 4)")
    payload = _payload("vertex Stokes", values)
    with open(csv_path, "w") as f:
        f.write("index,x,y,z,nx,ny,nz,s0,s1,s2,s3\n")
        for i, (v, n, s) in enumerate(zip(mesh.vertices, mesh.normals, values)):
            f.write(f"{i}," + ",".join(repr(float(x)) for x in (*v, *n, *s)) + "\n")
    with open(bin_path, "wb") as f:
        f.write(payload)


def shade_reference(mesh: Mesh, vertex_index: int, material: SyntheticPbrdf,
                    occluders, lighting: P.PshCoeffs, view_dir,
                    band: int = 48):
    """Brute-force angular shading of one vertex (the convergence oracle).

    Integrates pBRDF x visibility x band-limited lighting on a fine world
    grid; the binary visibility keeps this an independent angular-domain
    computation.
    """
    n = mesh.normals[vertex_index]
    pb = SyntheticPbrdf(n, material.roughness, material.ior,
                        material.horizon_sharpness)
    grid = gauss_legendre_grid(band)
    w = grid.weights().ravel()
    dirs = grid.dirs().reshape(-1, 3)
    light = P.psh_reconstruct_field(lighting, grid).data.reshape(-1, 4)
    vis = visibility_from_spheres(occluders, dirs).ravel()
    K = pb(dirs, np.asarray(view_dir, dtype=float)[None, :])
    return np.einsum("i,iab,ib->a", w * vis, K, light)
