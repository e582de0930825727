"""Procedural objects and synthetic registration pair generation.

Shapes are watertight primitives with deliberate asymmetries (chamfered box
corners, an obliquely cut cylinder top, an offset cone apex, a warped sphere
grid). A perfectly symmetric primitive would make the ground-truth rotation
unrecoverable from geometry alone, so each one carries enough signature to
pin its pose while keeping the stated primitive dimensions: box extents and
maximum cylinder/cone height equal ``scale`` exactly, sphere vertices sit
exactly on the ``scale/2`` sphere. Every shape is convex, so each kind lists
only its vertices at unit scale and its mesh is their convex hull, computed
once per kind and scaled per call.

``generate_pair`` mimics a depth observation of a posed object: sample the
model surface, pose it, keep the points visible from a random viewpoint,
resample to the target size, then corrupt with noise and outliers.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

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
        # the chained comparisons below reject NaN too
        lo, hi = self.scale_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError(f"bad scale_range {self.scale_range}: need finite 0 < min <= max")
        bad = [s for s in self.shapes if s not in SHAPE_KINDS]
        if bad:
            raise ValueError(f"unknown shape kind {bad[0]!r}")
        for key in ("noise_sigma", "outlier_bound", "translation_bound"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 < self.hpr_gamma < np.inf:
            raise ValueError(f"hpr_gamma must be finite and positive, got {self.hpr_gamma}")
        if not (0 <= self.outlier_fraction <= 1):
            raise ValueError("outlier_fraction must be in [0, 1]")
        if self.rotation_max_deg is not None and not 0 < self.rotation_max_deg < np.inf:
            raise ValueError(
                f"rotation_max_deg must be finite and positive, or None, got {self.rotation_max_deg}"
            )


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

def _box_vertices() -> Points:
    """Unit cube with three corners cut at different depths.

    Three different chamfer depths leave no rotational symmetry: corners
    sharing an edge stay clear of each other (0.55 + 0.30 < 1), and every
    body diagonal (whose 120-degree turns preserve chamfers at its own
    endpoints) has at least one large chamfer off-axis to break it. A cut
    at ``frac`` of an edge moves the corner's coordinate on that edge's
    axis from ±0.5 to ±0.5 * (1 - 2 * frac).
    """
    chamfers = {(1, 1, 1): 0.55, (1, -1, 1): 0.30, (-1, 1, -1): 0.42}
    kept = [c for c in itertools.product((-1, 1), repeat=3) if c not in chamfers]
    cuts = [np.array(c) * (1 - 2 * frac * np.eye(3)) for c, frac in chamfers.items()]
    return 0.5 * np.vstack([np.array(kept, dtype=float), *cuts])


def _cylinder_vertices(segments: int = 18) -> Points:
    phi = 2 * np.pi * np.arange(segments) / segments
    ring = 0.35 * np.column_stack([np.cos(phi), np.sin(phi)])
    top_z = (1 - np.cos(phi)) / 4  # planar oblique top: height from 1/2 up to 1
    return np.vstack([
        np.column_stack([ring, np.full(segments, -0.5)]),
        np.column_stack([ring, top_z]),
    ])


def _cone_vertices(segments: int = 24) -> Points:
    r = 0.35
    phi = 2 * np.pi * np.arange(segments) / segments
    base = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(segments, -0.5)])
    apex = np.array([0.3 * r, 0.15 * r, 0.5])  # offset apex: no axial symmetry
    return np.vstack([base, apex])


def _sphere_vertices(meridians: int = 12, rings: int = 7) -> Points:
    """Poles and a warped coarse grid on the sphere of radius 1/2.

    Vertices sit exactly on the sphere, but facet (chord) depths vary
    asymmetrically, which is the only way to give a sphere a pose signature
    without moving vertices off the surface.
    """
    u = np.arange(meridians) / meridians
    phi = 2 * np.pi * (u + 0.11 * np.sin(2 * np.pi * u))      # uneven meridian spacing
    v = np.arange(1, rings) / rings
    theta = np.pi * (v + 0.16 * np.sin(np.pi * v))            # north/south asymmetric rings
    th, ph = (a.ravel() for a in np.meshgrid(theta, phi, indexing="ij"))
    grid = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    return 0.5 * np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], grid])


_VERTICES = {
    "box": _box_vertices,
    "cylinder": _cylinder_vertices,
    "sphere": _sphere_vertices,
    "cone": _cone_vertices,
}


@functools.cache
def _unit_mesh(kind: str) -> TriangleMesh:
    """Convex hull of the kind's unit-scale vertices, every face turned outward."""
    vertices = _VERTICES[kind]()
    hull = ConvexHull(vertices)
    faces = hull.simplices.copy()
    a, b, c = (vertices[faces[:, i]] for i in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), hull.equations[:, :3]) < 0
    faces[inward] = faces[inward][:, ::-1]
    return TriangleMesh(vertices, faces)


def make_shape(kind: str, scale: float) -> TriangleMesh:
    """Watertight primitive with characteristic size ``scale``.

    Construction is deterministic per (kind, scale).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if kind not in _VERTICES:
        raise ValueError(f"unknown shape kind {kind!r}")
    # a positive scale keeps the unit hull's triangles convex and outward
    unit = _unit_mesh(kind)
    return TriangleMesh(scale * unit.vertices, unit.faces)


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
