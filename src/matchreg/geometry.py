"""Core 3D types and operations.

Rigid transforms, uniform rotation sampling, mesh surface sampling,
visibility-based partial views, and noise/outlier corruption. Point clouds
are plain ``(N, 3)`` float64 arrays throughout; small value types
(``Pose``, ``TriangleMesh``) are frozen dataclasses validated at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateMesh, DegenerateView, EmptyCloud

Points: TypeAlias = NDArray[np.float64]  # (N, 3)
Mat3: TypeAlias = NDArray[np.float64]    # (3, 3)
Vec3: TypeAlias = NDArray[np.float64]    # (3,)

# Rotation matrices drifted beyond this defect are rejected rather than
# silently re-orthonormalized.
_MAX_ROTATION_DEFECT = 1e-6
_VIEWPOINT_EPS = 1e-9


def as_points(arr) -> Points:
    """Validate and convert to an (N, 3) float64 point array."""
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyCloud("need at least 1 point(s), got 0")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform x -> rotation @ x + translation.

    The rotation must be orthonormal with determinant +1. Inputs whose
    orthonormality defect is below 1e-6 are projected back onto SO(3) so
    drift does not accumulate through compositions; worse inputs raise.
    """

    rotation: Mat3
    translation: Vec3

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        defect = np.linalg.norm(r.T @ r - np.eye(3))
        if defect > _MAX_ROTATION_DEFECT:
            raise ValueError(f"rotation defect {defect:.3e} exceeds {_MAX_ROTATION_DEFECT:.0e}")
        if defect > 1e-12:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
        if np.linalg.det(r) < 0:
            raise ValueError("rotation has determinant -1 (reflection)")
        object.__setattr__(self, "rotation", _frozen(r))
        object.__setattr__(self, "translation", _frozen(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle mesh; faces index into ``vertices``."""

    vertices: Points
    faces: NDArray[np.int64]

    def __post_init__(self):
        v = as_points(self.vertices)
        f = np.asarray(self.faces, dtype=np.int64)
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise ValueError("face index out of range")
        object.__setattr__(self, "vertices", _frozen(v))
        fro = np.array(f)
        fro.flags.writeable = False
        object.__setattr__(self, "faces", fro)

    def face_areas(self) -> NDArray[np.float64]:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def apply_pose(p: Pose, pc: Points) -> Points:
    """Map every point through x -> R x + t."""
    pts = as_points(pc)
    return pts @ p.rotation.T + p.translation


def random_rotation_uniform(rng: np.random.Generator) -> Mat3:
    """Rotation drawn uniformly on SO(3).

    A 4-component standard Gaussian, normalized, is uniform on the unit
    quaternion sphere, which double-covers SO(3) uniformly.
    """
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_about_axis(axis, angle_rad: float) -> Mat3:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    k = np.asarray(axis, dtype=np.float64).reshape(3)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle_rad) * kx + (1 - np.cos(angle_rad)) * (kx @ kx)


def sample_mesh_surface(mesh: TriangleMesh, n: int, rng: np.random.Generator) -> Points:
    """Draw ``n`` points uniformly over the mesh surface.

    Faces are chosen with probability proportional to area, positions by
    uniform barycentric sampling, so zero-area faces are never selected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise DegenerateMesh("mesh has zero total surface area")
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1
    u[flip] = 1 - u[flip]
    v[flip] = 1 - v[flip]
    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


def hidden_point_removal(pc: Points, viewpoint, gamma: float = 10.0) -> NDArray[np.int64]:
    """Indices of points visible from ``viewpoint`` (spherical flipping).

    Each point is translated into the viewpoint frame and flipped to
    p + 2*(rho - |p|) * p/|p| with rho = gamma * max|p|; convex-hull members
    of the flipped cloud are the visible set. Deterministic for fixed inputs.
    """
    pts = as_points(pc)
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    rel = pts - vp
    norms = np.linalg.norm(rel, axis=1)
    if norms.min() < _VIEWPOINT_EPS:
        raise DegenerateView("viewpoint coincides with a cloud point")
    if pts.shape[0] <= 3:
        return np.arange(pts.shape[0], dtype=np.int64)
    rho = gamma * norms.max()
    flipped = rel + 2.0 * ((rho - norms) / norms)[:, None] * rel
    try:
        hull = ConvexHull(flipped)
    except QhullError:
        # Degenerate (flat) configurations: joggle keeps qhull deterministic.
        hull = ConvexHull(flipped, qhull_options="QJ")
    return np.sort(hull.vertices.astype(np.int64))


def add_noise_and_outliers(
    pc: Points,
    sigma: float,
    outlier_fraction: float,
    bound: float,
    rng: np.random.Generator,
) -> Points:
    """Gaussian-perturb all points, then replace a fraction with box outliers.

    Outliers are uniform in the input cloud's bounding box inflated by
    ``bound`` on every side; cloud size is preserved.
    """
    pts = as_points(pc)
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must be in [0, 1]")
    n = pts.shape[0]
    out = pts.copy()
    if sigma > 0:
        out += sigma * rng.standard_normal((n, 3))
    n_out = int(np.floor(outlier_fraction * n))
    if n_out > 0:
        lo = pts.min(axis=0) - bound
        hi = pts.max(axis=0) + bound
        idx = rng.choice(n, size=n_out, replace=False)
        out[idx] = lo + (hi - lo) * rng.random((n_out, 3))
    return out
