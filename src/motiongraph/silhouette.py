"""Capsule-body silhouettes and the image-space pose distance.

Each bone (parent->child segment plus the child's capsule radius) is
projected through a pinhole camera and rasterized conservatively: a pixel is
inside the bone's silhouette iff its center lies within the perspective-scaled
radius of the projected segment, with the radius evaluated at the nearest
segment point. The image-space distance between two frames is one minus the
IoU of their masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import StructuralError, ValidationError, read_document
from .pose import Skeleton

#: Depth (meters) below which geometry counts as behind the camera.
NEAR_PLANE = 1e-4

#: Default raster resolution; d_img is resolution-stable under the threshold
#: calibration, so silhouettes need not match the source video resolution.
DEFAULT_RESOLUTION = (256, 256)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera. ``rotation``/``translation`` map world to camera
    coordinates (x right, y down, z forward); depth must be positive to be
    visible."""

    focal_length: float  # pixels
    principal_point: tuple[float, float]  # pixels
    image_size: tuple[int, int]  # (width, height) pixels
    rotation: np.ndarray = None  # (3, 3) world->camera
    translation: np.ndarray = None  # (3,)

    def __post_init__(self):
        r = np.eye(3) if self.rotation is None else np.asarray(self.rotation, dtype=np.float64)
        t = (
            np.zeros(3)
            if self.translation is None
            else np.asarray(self.translation, dtype=np.float64)
        )
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not self.focal_length > 0:
            raise ValidationError(f"focal_length must be > 0, got {self.focal_length}")
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValidationError(f"image_size must be positive, got {self.image_size}")
        if len(self.principal_point) != 2:
            raise ValidationError(f"principal_point must be (x, y), got {self.principal_point}")
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValidationError("camera rotation must be (3,3) and translation (3,)")
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6) or not np.isclose(
            np.linalg.det(r), 1.0, atol=1e-6
        ):
            raise ValidationError("camera rotation is not a proper rotation matrix")

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def default_camera(
    image_size: tuple[int, int] = DEFAULT_RESOLUTION, focal_length: float = 300.0
) -> CameraModel:
    """Identity-pose camera with the principal point at the image center."""
    w, h = image_size
    return CameraModel(
        focal_length=focal_length,
        principal_point=(w / 2.0, h / 2.0),
        image_size=(w, h),
    )


@dataclass(frozen=True)
class SilhouetteMask:
    """Binary occupancy of the projected body, row-major, True = visible."""

    width: int
    height: int
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        if self.bits.shape != (self.height, self.width):
            raise StructuralError(
                f"mask bits {self.bits.shape} do not match "
                f"(height={self.height}, width={self.width})"
            )

    @property
    def area(self) -> int:
        return int(np.count_nonzero(self.bits))


def _bone_segments(skeleton: Skeleton, joint_positions: np.ndarray):
    """(B, 3) world endpoints and radii for every parent->child bone."""
    parents = skeleton.parents
    child = np.arange(1, len(skeleton))
    a = joint_positions[parents[child]]
    b = joint_positions[child]
    radii = skeleton.radii[child]
    return a, b, radii


def rasterize_silhouette(
    skeleton: Skeleton, joint_positions: np.ndarray, camera: CameraModel
) -> SilhouetteMask:
    """Project every bone capsule and rasterize the union silhouette.

    Bones entirely behind the camera contribute nothing; bones crossing the
    camera plane are clipped to a small positive depth. A body that is fully
    behind the camera yields an empty mask.
    """
    joint_positions = np.asarray(joint_positions, dtype=np.float64)
    if joint_positions.shape != (len(skeleton), 3):
        raise StructuralError(
            f"joint_positions {joint_positions.shape} do not match skeleton "
            f"with {len(skeleton)} joints"
        )
    w, h = camera.image_size
    if len(skeleton) < 2:
        return SilhouetteMask(w, h, np.zeros((h, w), dtype=bool))

    a, b, radii = _bone_segments(skeleton, joint_positions)
    a = camera.to_camera(a)
    b = camera.to_camera(b)

    keep = (a[:, 2] > NEAR_PLANE) | (b[:, 2] > NEAR_PLANE)
    a, b, radii = a[keep], b[keep], radii[keep]
    if a.shape[0] == 0:
        return SilhouetteMask(w, h, np.zeros((h, w), dtype=bool))

    # Clip segments crossing the camera plane to z = NEAR_PLANE.
    for p, q in ((a, b), (b, a)):
        behind = p[:, 2] <= NEAR_PLANE
        if behind.any():
            t = (NEAR_PLANE - p[behind, 2]) / (q[behind, 2] - p[behind, 2])
            p[behind] = p[behind] + t[:, None] * (q[behind] - p[behind])

    f = camera.focal_length
    cx, cy = camera.principal_point
    iz0 = 1.0 / a[:, 2]
    iz1 = 1.0 / b[:, 2]
    p0 = np.stack([f * a[:, 0] * iz0 + cx, f * a[:, 1] * iz0 + cy], axis=1)
    p1 = np.stack([f * b[:, 0] * iz1 + cx, f * b[:, 1] * iz1 + cy], axis=1)

    bits = kernels.rasterize_capsules(p0, p1, iz0, iz1, radii, f, w, h)
    return SilhouetteMask(w, h, bits)


def rasterize_sequence(
    skeleton: Skeleton, positions_per_frame, camera: CameraModel
) -> np.ndarray:
    """Bit-packed per-frame silhouettes: one ``kernels.pack_masks`` row per
    frame, shape (N, W64) ``uint64``. Each frame is packed as soon as it is
    drawn, so at most one unpacked mask is alive at a time; ``unpack_mask``
    turns a row back into a ``SilhouetteMask``."""
    w, h = camera.image_size
    rows = [
        kernels.pack_masks(rasterize_silhouette(skeleton, pos, camera).bits[None])[0]
        for pos in positions_per_frame
    ]
    if not rows:
        return kernels.pack_masks(np.zeros((0, h, w), dtype=bool))
    return np.stack(rows, axis=0)


def unpack_mask(row: np.ndarray, width: int, height: int) -> SilhouetteMask:
    """The mask of one packed row of ``rasterize_sequence`` (padding dropped)."""
    bits = np.unpackbits(row.view(np.uint8), count=width * height).view(bool)
    return SilhouetteMask(width, height, bits.reshape(height, width))


def image_distance(mask_m: SilhouetteMask, mask_n: SilhouetteMask) -> float:
    """1 - IoU of two masks; 0 when both are empty."""
    if (mask_m.width, mask_m.height) != (mask_n.width, mask_n.height):
        raise StructuralError(
            f"mask dimensions differ: {(mask_m.width, mask_m.height)} vs "
            f"{(mask_n.width, mask_n.height)}"
        )
    inter = int(np.count_nonzero(mask_m.bits & mask_n.bits))
    union = int(np.count_nonzero(mask_m.bits | mask_n.bits))
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def write_pgm(mask: SilhouetteMask, path: str | Path) -> None:
    """Dump a mask as a binary portable graymap (body = 255)."""
    payload = (mask.bits.astype(np.uint8) * 255).tobytes()
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# camera file
# ---------------------------------------------------------------------------

CAMERA_FORMAT = "camera/1"


def save_camera(path: str | Path, camera: CameraModel) -> None:
    doc = {
        "format": CAMERA_FORMAT,
        "focal_length": camera.focal_length,
        "principal_point": list(camera.principal_point),
        "image_size": list(camera.image_size),
        "rotation": camera.rotation.tolist(),
        "translation": camera.translation.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def load_camera(path: str | Path) -> CameraModel:
    def build(doc):
        return CameraModel(
            focal_length=float(doc["focal_length"]),
            principal_point=tuple(doc["principal_point"]),
            image_size=tuple(int(v) for v in doc["image_size"]),
            rotation=np.array(doc["rotation"]),
            translation=np.array(doc["translation"]),
        )

    return read_document(Path(path).read_bytes(), f"camera file {path}", CAMERA_FORMAT, build)
