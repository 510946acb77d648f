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
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .errors import StructuralError, ValidationError, is_integer, read_document, real, reals
from .pose import Skeleton

#: Depth (meters) below which geometry counts as behind the camera.
NEAR_PLANE = 1e-4

#: Default raster resolution; d_img is resolution-stable under the threshold
#: calibration, so silhouettes need not match the source video resolution.
DEFAULT_RESOLUTION = (256, 256)

#: Frames rasterized together, all their bones at once. On the fixture 32 to
#: 128 ran equally fast and 4 to 24 slower. The transient is one
#: (RASTER_CHUNK, H, W) bool buffer plus one block of ``kernels.RASTER_BLOCK``
#: box pixels.
RASTER_CHUNK = 32


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera. ``rotation``/``translation`` map world to camera
    coordinates (x right, y down, z forward); depth must be positive to be
    visible."""

    focal_length: float  # pixels
    principal_point: tuple[float, float]  # pixels
    image_size: tuple[int, int]  # (width, height) pixels
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))  # (3, 3) world->camera
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = reals("camera rotation", self.rotation, (3, 3))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", reals("camera translation", self.translation, (3,)))
        # A non-finite value would draw every silhouette empty.
        object.__setattr__(self, "focal_length",
                           real("focal_length", self.focal_length, 0, above=True))
        object.__setattr__(self, "principal_point", tuple(  # the JSON writer needs floats
            reals("camera principal_point", self.principal_point, (2,)).tolist()))
        try:
            w, h = self.image_size
        except (TypeError, ValueError):  # not two values
            w = h = None
        if not (is_integer(w) and is_integer(h) and w > 0 and h > 0):
            raise ValidationError(f"image_size must be two integers > 0, got {self.image_size}")
        object.__setattr__(self, "image_size", (int(w), int(h)))  # the JSON writer needs ints
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


def _check_positions(skeleton: Skeleton, shape) -> None:
    if tuple(shape) != (len(skeleton), 3):
        raise StructuralError(
            f"joint_positions {tuple(shape)} do not match skeleton "
            f"with {len(skeleton)} joints"
        )


def rasterize_frames(skeleton: Skeleton, positions, camera: CameraModel) -> np.ndarray:
    """(F, H, W) bool silhouettes of the (F, J, 3) world joint positions.

    Project every bone capsule and rasterize the union silhouette of each
    frame. Bones entirely behind the camera contribute nothing; bones
    crossing the camera plane are clipped to a small positive depth. A body
    that is fully behind the camera yields an empty mask. Every frame is
    transformed, clipped and projected at once; the camera transform is one
    ``np.matmul`` over the frames' stacked (B, 3) endpoints, which makes the
    same BLAS call per frame as one frame alone, so a frame's mask does not
    depend on the other frames.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3:
        raise StructuralError(f"frame positions must be (F, J, 3), got {positions.shape}")
    _check_positions(skeleton, positions.shape[1:])
    w, h = camera.image_size
    parents = skeleton.parents
    child = np.arange(1, len(skeleton))
    a = camera.to_camera(positions[:, parents[child]])
    b = camera.to_camera(positions[:, child])

    visible = (a[..., 2] > NEAR_PLANE) | (b[..., 2] > NEAR_PLANE)
    # Clip segments crossing the camera plane to z = NEAR_PLANE.
    for p, q in ((a, b), (b, a)):
        behind = visible & (p[..., 2] <= NEAR_PLANE)
        if behind.any():
            t = (NEAR_PLANE - p[behind, 2]) / (q[behind, 2] - p[behind, 2])
            p[behind] = p[behind] + t[:, None] * (q[behind] - p[behind])

    f = camera.focal_length
    cx, cy = camera.principal_point
    # Hidden bones are not drawn: give them depth 1 so nothing divides by 0.
    iz0 = 1.0 / np.where(visible, a[..., 2], 1.0)
    iz1 = 1.0 / np.where(visible, b[..., 2], 1.0)
    p0 = np.stack([f * a[..., 0] * iz0 + cx, f * a[..., 1] * iz0 + cy], axis=-1)
    p1 = np.stack([f * b[..., 0] * iz1 + cx, f * b[..., 1] * iz1 + cy], axis=-1)
    radii = skeleton.radii[child]
    return kernels.rasterize_capsules(p0, p1, iz0, iz1, radii, visible, f, w, h)


def rasterize_silhouette(
    skeleton: Skeleton, joint_positions: np.ndarray, camera: CameraModel
) -> np.ndarray:
    """The (H, W) bool silhouette of one frame's (J, 3) joint positions: the
    one-frame case of ``rasterize_frames``."""
    joint_positions = np.asarray(joint_positions, dtype=np.float64)
    _check_positions(skeleton, joint_positions.shape)
    return rasterize_frames(skeleton, joint_positions[None], camera)[0]


def rasterize_chunks(skeleton: Skeleton, positions: np.ndarray, camera: CameraModel):
    """Yield the silhouettes of (F, J, 3) joint positions, in order, as
    (RASTER_CHUNK, H, W) bool arrays (the last one may hold fewer frames)."""
    for lo in range(0, len(positions), RASTER_CHUNK):
        yield rasterize_frames(skeleton, positions[lo : lo + RASTER_CHUNK], camera)


def rasterize_sequence(
    skeleton: Skeleton, positions_per_frame, camera: CameraModel
) -> np.ndarray:
    """Bit-packed silhouettes of an iterable of (J, 3) joint positions: one
    ``kernels.pack_masks`` row per frame, shape (N, W64) ``uint64``. The frames
    are stacked, then drawn ``RASTER_CHUNK`` at a time, each chunk packed into
    the result, so one chunk of unpacked masks is alive at a time;
    ``unpack_mask`` turns a row back into an (H, W) mask."""
    frames = []
    for positions in positions_per_frame:
        positions = np.asarray(positions, dtype=np.float64)
        _check_positions(skeleton, positions.shape)
        frames.append(positions)
    positions = np.array(frames).reshape(len(frames), len(skeleton), 3)
    w, h = camera.image_size
    packed = np.empty((len(frames), -(-w * h // 64)), dtype=np.uint64)
    for i, masks in enumerate(rasterize_chunks(skeleton, positions, camera)):
        packed[i * RASTER_CHUNK : (i + 1) * RASTER_CHUNK] = kernels.pack_masks(masks)
    return packed


def unpack_mask(row: np.ndarray, width: int, height: int) -> np.ndarray:
    """The (H, W) bool mask of one packed row of ``rasterize_sequence``
    (padding dropped). The row must hold exactly the uint64 words of a
    ``width`` x ``height`` mask."""
    words = -(-width * height // 64)
    if not (isinstance(row, np.ndarray) and row.dtype == np.uint64 and row.shape == (words,)):
        raise StructuralError(
            f"a packed {width}x{height} mask is {words} uint64 words, got "
            f"{getattr(row, 'shape', None)} {getattr(row, 'dtype', type(row).__name__)}")
    bits = np.unpackbits(row.view(np.uint8), count=width * height).view(bool)
    return bits.reshape(height, width)


def write_pgm(image: np.ndarray, path: str | Path) -> None:
    """Write an (H, W) uint8 image as a binary portable graymap. A bool mask
    is refused; ``mask.view(np.uint8) * 255`` draws the body at 255."""
    if image.dtype != np.uint8 or image.ndim != 2:
        raise StructuralError(f"a PGM image is (H, W) uint8, got {image.shape} {image.dtype}")
    h, w = image.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes())


def write_pgm_frames(images, directory: str | Path, prefix: str) -> list[Path]:
    """Write each image as ``<prefix>_<i:06d>.pgm`` under ``directory`` and return the
    paths. Then delete the numbered frames an earlier, longer run left: the files named
    ``<prefix>_<digits>.pgm`` numbered at or past the count written. Nothing else is touched."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i, image in enumerate(images):
        written.append(directory / f"{prefix}_{i:06d}.pgm")
        write_pgm(image, written[-1])
    numbered = re.compile(rf"{re.escape(prefix)}_([0-9]+)\.pgm")
    for path in directory.iterdir():
        match = numbered.fullmatch(path.name)
        if match and int(match[1]) >= len(written) and path.is_file():
            path.unlink()
    return written


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
            focal_length=doc["focal_length"],
            principal_point=doc["principal_point"],
            image_size=doc["image_size"],
            rotation=doc["rotation"],
            translation=doc["translation"],
        )

    return read_document(Path(path).read_bytes(), f"camera file {path}", CAMERA_FORMAT, build)
