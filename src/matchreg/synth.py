"""Procedural objects and synthetic registration pair generation.

Shapes are watertight primitives with deliberate asymmetries (chamfered box
corners, an obliquely cut cylinder top, an offset cone apex, a warped sphere
grid). A perfectly symmetric primitive would make the ground-truth rotation
unrecoverable from geometry alone, so each one carries enough signature to
pin its pose while keeping the stated primitive dimensions: box extents and
maximum cylinder/cone height equal ``scale`` exactly, sphere vertices sit
exactly on the ``scale/2`` sphere.

``generate_pair`` mimics a depth observation of a posed object: sample the
model surface, pose it, keep the points visible from a random viewpoint,
resample to the target size, then corrupt with noise and outliers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptDataset, ManifestNotFound
from .fileio import NUMBER, read_json, read_ply, require_keys, write_ply
from .geometry import (
    Points,
    Pose,
    TriangleMesh,
    add_noise_and_outliers,
    apply_pose,
    hidden_point_removal,
    random_rotation_uniform,
    rotation_about_axis,
    sample_mesh_surface,
)

SHAPE_KINDS = ("box", "cylinder", "sphere", "cone")


@dataclass(frozen=True)
class SynthConfig:
    m: int = 1024
    n: int = 768
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    outlier_bound: float = 0.1
    rotation_max_deg: float | None = None  # None = full SO(3)
    scale_range: tuple[float, float] = (0.5, 2.0)
    shapes: tuple[str, ...] = SHAPE_KINDS
    hpr_gamma: float = 10.0
    translation_bound: float = 0.5
    viewpoint_distance_factor: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not (self.m > self.n > 0):
            raise ValueError(f"need m > n > 0, got m={self.m}, n={self.n}")
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ValueError(f"bad scale_range {self.scale_range}")
        bad = [s for s in self.shapes if s not in SHAPE_KINDS]
        if bad:
            raise ValueError(f"unknown shape kind {bad[0]!r}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.hpr_gamma > 0:
            raise ValueError(f"hpr_gamma must be positive, got {self.hpr_gamma}")
        if not (0 <= self.outlier_fraction <= 1):
            raise ValueError("outlier_fraction must be in [0, 1]")
        if not self.outlier_bound >= 0:
            raise ValueError(f"outlier_bound must be >= 0, got {self.outlier_bound}")
        if self.rotation_max_deg is not None and self.rotation_max_deg <= 0:
            raise ValueError("rotation_max_deg must be positive or None")


@dataclass(frozen=True)
class PairSample:
    source: Points
    target: Points
    gt_pose: Pose
    shape_id: str
    scale: float


# ---------------------------------------------------------------------------
# Shape construction
# ---------------------------------------------------------------------------

def _triangulate(vertices: list, polygons: list[list[int]]) -> TriangleMesh:
    tris = []
    for poly in polygons:
        for i in range(1, len(poly) - 1):
            tris.append([poly[0], poly[i], poly[i + 1]])
    return TriangleMesh(np.asarray(vertices, dtype=float), np.asarray(tris, dtype=np.int64))


def _chamfer_corner(vertices, polygons, corner: int, frac: float):
    """Cut a cube corner at ``frac`` of the edge length, keeping closure.

    Cube edges are axis-aligned, so the cut vertex for each of the three
    corner edges is keyed by axis; polygon neighbors of the corner (which
    may already be cut vertices from an earlier chamfer) map to their edge
    axis by the dominant component of their offset.
    """
    p = np.asarray(vertices[corner])
    cut_by_axis = {}
    for axis in range(3):
        q = p.copy()
        q[axis] = -q[axis]
        cut_by_axis[axis] = len(vertices)
        vertices.append(p + frac * (q - p))

    new_polys = []
    for poly in polygons:
        if corner not in poly:
            new_polys.append(poly)
            continue
        k = poly.index(corner)
        prev_axis = int(np.argmax(np.abs(np.asarray(vertices[poly[k - 1]]) - p)))
        next_axis = int(np.argmax(np.abs(np.asarray(vertices[poly[(k + 1) % len(poly)]]) - p)))
        replaced = poly[:k] + [cut_by_axis[prev_axis], cut_by_axis[next_axis]] + poly[k + 1:]
        new_polys.append(replaced)

    tri = [cut_by_axis[a] for a in range(3)]
    centroid = np.mean([vertices[i] for i in tri], axis=0)
    normal = np.cross(
        np.asarray(vertices[tri[1]]) - vertices[tri[0]],
        np.asarray(vertices[tri[2]]) - vertices[tri[0]],
    )
    if np.dot(normal, centroid) < 0:
        tri = [tri[0], tri[2], tri[1]]
    new_polys.append(tri)
    return vertices, new_polys


def _make_box(scale: float) -> TriangleMesh:
    s = scale / 2
    vertices = [
        np.array(v, dtype=float)
        for v in [
            (-s, -s, -s), (s, -s, -s), (s, s, -s), (-s, s, -s),
            (-s, -s, s), (s, -s, s), (s, s, s), (-s, s, s),
        ]
    ]
    polygons = [
        [0, 3, 2, 1],  # bottom, normal -z
        [4, 5, 6, 7],  # top, normal +z
        [0, 1, 5, 4],  # front, -y
        [2, 3, 7, 6],  # back, +y
        [0, 4, 7, 3],  # left, -x
        [1, 2, 6, 5],  # right, +x
    ]
    # three different chamfer depths leave no rotational symmetry: corners
    # sharing an edge stay clear of each other (0.55 + 0.30 < 1), and every
    # body diagonal (whose 120-degree turns preserve chamfers at its own
    # endpoints) has at least one large chamfer off-axis to break it
    vertices, polygons = _chamfer_corner(vertices, polygons, corner=6, frac=0.55)
    vertices, polygons = _chamfer_corner(vertices, polygons, corner=5, frac=0.30)
    vertices, polygons = _chamfer_corner(vertices, polygons, corner=3, frac=0.42)
    return _triangulate(vertices, polygons)


def _make_cylinder(scale: float, segments: int = 18) -> TriangleMesh:
    r = 0.35 * scale
    tilt = 0.5 * scale
    phi = 2 * np.pi * np.arange(segments) / segments
    bottom = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(segments, -scale / 2)])
    # planar oblique top: z = scale/2 - tilt * (1 + cos phi) / 2, max height = scale
    top_z = scale / 2 - tilt * (1 + np.cos(phi)) / 2
    top = np.column_stack([r * np.cos(phi), r * np.sin(phi), top_z])
    vertices = np.vstack([bottom, top])
    b = np.arange(segments)
    t = segments + b
    polys: list[list[int]] = []
    polys.append([int(i) for i in b[::-1]])  # bottom cap, -z outward
    polys.append([int(i) for i in t])        # top cap, +z-ish outward
    for k in range(segments):
        k1 = (k + 1) % segments
        polys.append([int(b[k]), int(b[k1]), int(t[k1]), int(t[k])])
    return _triangulate([v for v in vertices], polys)


def _make_cone(scale: float, segments: int = 24) -> TriangleMesh:
    r = 0.35 * scale
    phi = 2 * np.pi * np.arange(segments) / segments
    base = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(segments, -scale / 2)])
    apex = np.array([0.3 * r, 0.15 * r, scale / 2])  # offset apex: no axial symmetry
    vertices = [*base, apex]
    a = segments
    polys: list[list[int]] = [[int(i) for i in np.arange(segments)[::-1]]]
    for k in range(segments):
        k1 = (k + 1) % segments
        polys.append([k, k1, a])
    return _triangulate(vertices, polys)


def _make_sphere(scale: float, meridians: int = 12, rings: int = 7) -> TriangleMesh:
    """Sphere with a warped coarse grid: vertices sit exactly on the sphere,
    but facet (chord) depths vary asymmetrically, which is the only way to
    give a sphere a pose signature without moving vertices off the surface."""
    radius = scale / 2
    u = np.arange(meridians) / meridians
    phi = 2 * np.pi * (u + 0.11 * np.sin(2 * np.pi * u))      # uneven meridian spacing
    v = np.arange(1, rings) / rings
    theta = np.pi * (v + 0.16 * np.sin(np.pi * v))            # north/south asymmetric rings

    vertices = [np.array([0.0, 0.0, radius]), np.array([0.0, 0.0, -radius])]
    ring_start = []
    for th in theta:
        ring_start.append(len(vertices))
        for ph in phi:
            vertices.append(
                radius * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            )
    polys: list[list[int]] = []
    first = ring_start[0]
    for k in range(meridians):
        k1 = (k + 1) % meridians
        polys.append([0, first + k, first + k1])  # north cap
    for ri in range(len(theta) - 1):
        a0 = ring_start[ri]
        b0 = ring_start[ri + 1]
        for k in range(meridians):
            k1 = (k + 1) % meridians
            polys.append([a0 + k, b0 + k, b0 + k1, a0 + k1])
    last = ring_start[-1]
    for k in range(meridians):
        k1 = (k + 1) % meridians
        polys.append([1, last + k1, last + k])  # south cap
    return _triangulate(vertices, polys)


def make_shape(kind: str, scale: float) -> TriangleMesh:
    """Watertight primitive with characteristic size ``scale``.

    Construction is deterministic per (kind, scale).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if kind == "box":
        return _make_box(scale)
    if kind == "cylinder":
        return _make_cylinder(scale)
    if kind == "sphere":
        return _make_sphere(scale)
    if kind == "cone":
        return _make_cone(scale)
    raise ValueError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------

def _draw_pose(cfg: SynthConfig, rng: np.random.Generator) -> Pose:
    if cfg.rotation_max_deg is None:
        rot = random_rotation_uniform(rng)
    else:
        axis = rng.standard_normal(3)
        angle = np.radians(rng.uniform(0.0, cfg.rotation_max_deg))
        rot = rotation_about_axis(axis, angle)
    t = rng.uniform(-cfg.translation_bound, cfg.translation_bound, 3)
    return Pose(rot, t)


def generate_pair(cfg: SynthConfig, rng: np.random.Generator) -> PairSample:
    """One registration sample: full model cloud vs. posed partial view."""
    kind = cfg.shapes[int(rng.integers(len(cfg.shapes)))]
    scale = float(rng.uniform(*cfg.scale_range))
    mesh = make_shape(kind, scale)
    source = sample_mesh_surface(mesh, cfg.m, rng)
    gt_pose = _draw_pose(cfg, rng)
    posed = apply_pose(gt_pose, source)

    center = posed.mean(axis=0)
    radius = float(np.linalg.norm(posed - center, axis=1).max())
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    viewpoint = center + cfg.viewpoint_distance_factor * radius * direction
    vis_pts = posed[hidden_point_removal(posed, viewpoint, gamma=cfg.hpr_gamma)]

    if len(vis_pts) >= cfg.n:
        sel = rng.choice(len(vis_pts), cfg.n, replace=False)
    else:
        pad = rng.choice(len(vis_pts), cfg.n - len(vis_pts), replace=True)
        sel = np.concatenate([np.arange(len(vis_pts)), pad])
    target = add_noise_and_outliers(
        vis_pts[sel], cfg.noise_sigma, cfg.outlier_fraction, cfg.outlier_bound, rng
    )
    return PairSample(source=source, target=target, gt_pose=gt_pose, shape_id=kind, scale=scale)


def generate_dataset(cfg: SynthConfig, count: int) -> list[PairSample]:
    """Deterministic dataset: sample i uses a generator seeded by (seed, i)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [generate_pair(cfg, np.random.default_rng([cfg.seed, i])) for i in range(count)]


# ---------------------------------------------------------------------------
# On-disk datasets
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "matchreg-dataset"
DATASET_VERSION = 1


def write_dataset(path, samples: list[PairSample], cfg: SynthConfig) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for i, s in enumerate(samples):
        stem = f"pair_{i:05d}"
        write_ply(root / f"{stem}_source.ply", s.source)
        write_ply(root / f"{stem}_target.ply", s.target)
        pose_doc = {
            "rotation": [[float(v) for v in row] for row in s.gt_pose.rotation],
            "translation": [float(v) for v in s.gt_pose.translation],
            "shape_id": s.shape_id,
            "scale": s.scale,
        }
        (root / f"{stem}_pose.json").write_text(
            json.dumps(pose_doc, sort_keys=True, indent=1) + "\n"
        )
        records.append(
            {"source": f"{stem}_source.ply", "target": f"{stem}_target.ply", "pose": f"{stem}_pose.json"}
        )
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "count": len(samples),
        "config": {**asdict(cfg), "scale_range": list(cfg.scale_range), "shapes": list(cfg.shapes)},
        "samples": records,
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def read_dataset(path) -> tuple[list[PairSample], dict]:
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ManifestNotFound(f"no {MANIFEST_NAME} in {root}")
    manifest = read_json(manifest_path, CorruptDataset)
    config, records = require_keys(
        manifest, {"config": dict, "samples": list}, manifest_path, CorruptDataset
    ).values()
    if manifest.get("format") != DATASET_FORMAT:
        raise CorruptDataset(f"{manifest_path}: unexpected format field")
    if manifest.get("count") != len(records):
        raise CorruptDataset(
            f"{manifest_path}: count {manifest.get('count')} != {len(records)} sample records"
        )
    samples = []
    for i, rec in enumerate(records):
        where = f"{manifest_path}: sample {i}"
        files = require_keys(
            rec, dict.fromkeys(("source", "target", "pose"), str), where, CorruptDataset
        ).values()
        for name in files:
            if not (root / name).exists():
                raise CorruptDataset(f"missing dataset file {name}")
        source, target, pose = (root / name for name in files)
        rotation, translation, shape_id, scale = require_keys(
            read_json(pose, CorruptDataset),
            {"rotation": list, "translation": list, "shape_id": str, "scale": NUMBER},
            pose, CorruptDataset,
        ).values()
        try:
            gt_pose = Pose(np.array(rotation), np.array(translation))
        except (TypeError, ValueError) as err:  # entries that are not numbers, or misshapen
            raise CorruptDataset(f"{pose}: {err}") from None
        samples.append(
            PairSample(
                source=read_ply(source),
                target=read_ply(target),
                gt_pose=gt_pose,
                shape_id=shape_id,
                scale=float(scale),
            )
        )
    return samples, config
