import json
import math

import numpy as np
import pytest

from motiongraph import kernels
from motiongraph.errors import GraphParseError, StructuralError, ValidationError
from motiongraph.pose import Joint, Skeleton, forward_kinematics
from motiongraph.silhouette import (
    NEAR_PLANE,
    RASTER_CHUNK,
    CameraModel,
    default_camera,
    image_distance,
    load_camera,
    rasterize_frames,
    rasterize_sequence,
    rasterize_silhouette,
    save_camera,
    unpack_mask,
    write_pgm,
)

from conftest import make_pose
from oracles import per_frame_silhouette


def sphere_skeleton(radius):
    """Zero-length bone: projects as a disk."""
    return Skeleton(
        (
            Joint("root", None, (0.0, 0.0, 0.0), radius),
            Joint("ball", 0, (0.0, 0.0, 0.0), radius),
        )
    )


def brute_force_mask(skeleton, joint_positions, camera):
    """Per-pixel oracle: same geometric rule, no bounding boxes, no kernels."""
    w, h = camera.image_size
    f = camera.focal_length
    cx, cy = camera.principal_point
    bits = np.zeros((h, w), dtype=bool)
    parents = skeleton.parents
    for j in range(1, len(skeleton)):
        a = camera.to_camera(np.asarray(joint_positions[parents[j]], dtype=float))
        b = camera.to_camera(np.asarray(joint_positions[j], dtype=float))
        if a[2] <= NEAR_PLANE and b[2] <= NEAR_PLANE:
            continue
        if a[2] <= NEAR_PLANE:
            t = (NEAR_PLANE - a[2]) / (b[2] - a[2])
            a = a + t * (b - a)
        if b[2] <= NEAR_PLANE:
            t = (NEAR_PLANE - b[2]) / (a[2] - b[2])
            b = b + t * (a - b)
        r = skeleton.joints[j].capsule_radius
        iz0, iz1 = 1.0 / a[2], 1.0 / b[2]
        p0 = np.array([f * a[0] * iz0 + cx, f * a[1] * iz0 + cy])
        p1 = np.array([f * b[0] * iz1 + cx, f * b[1] * iz1 + cy])
        d = p1 - p0
        denom = float(d @ d)
        for y in range(h):
            for x in range(w):
                q = np.array([x + 0.5, y + 0.5])
                t = float(np.clip((q - p0) @ d / denom, 0.0, 1.0)) if denom > 0 else 0.0
                s = p0 + t * d
                iz = (1.0 - t) * iz0 + t * iz1
                rho = f * r * iz
                if float((q - s) @ (q - s)) <= rho * rho:
                    bits[y, x] = True
    return bits


class TestCameraModel:
    def test_degenerate_focal(self):
        with pytest.raises(ValidationError):
            CameraModel(focal_length=0.0, principal_point=(8, 8), image_size=(16, 16))

    def test_bad_rotation(self):
        with pytest.raises(ValidationError):
            CameraModel(
                focal_length=10.0,
                principal_point=(8, 8),
                image_size=(16, 16),
                rotation=np.ones((3, 3)),
            )

    @pytest.mark.parametrize(
        "field, value",
        [("focal_length", math.inf), ("focal_length", -math.inf), ("focal_length", math.nan),
         ("principal_point", (math.nan, 8.0)), ("principal_point", (8.0, math.inf)),
         ("translation", [0.0, math.nan, 0.0]), ("translation", [math.inf, 0.0, 0.0])],
    )
    def test_non_finite_values_rejected(self, tmp_path, field, value):
        # A non-finite camera draws every silhouette empty, and empty masks
        # make every d_img 0.
        good = dict(focal_length=10.0, principal_point=(8.0, 8.0), image_size=(16, 16),
                    translation=[0.0, 0.0, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            CameraModel(**dict(good, **{field: value}))
        save_camera(tmp_path / "cam.json", CameraModel(**good))
        doc = json.loads((tmp_path / "cam.json").read_text())
        doc[field] = list(value) if isinstance(value, (tuple, list)) else value
        (tmp_path / "cam.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match="finite"):
            load_camera(tmp_path / "cam.json")

    @pytest.mark.parametrize(
        "size", [(256.9, 100.7), (16.0, 16), (16, True), ("16", 16), (np.float64(16), 16)]
    )
    def test_image_size_must_be_integers(self, tmp_path, size):
        # A fractional size is refused, not truncated.
        with pytest.raises(ValidationError, match="image_size must be two integers > 0"):
            CameraModel(focal_length=10.0, principal_point=(8.0, 8.0), image_size=size)
        save_camera(tmp_path / "cam.json", default_camera((16, 16)))
        doc = json.loads((tmp_path / "cam.json").read_text())
        doc["image_size"] = [v.item() if isinstance(v, np.generic) else v for v in size]
        (tmp_path / "cam.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match="image_size must be two integers > 0"):
            load_camera(tmp_path / "cam.json")

    def test_numpy_integer_image_size_accepted(self, tmp_path):
        cam = CameraModel(focal_length=10.0, principal_point=(8.0, 6.0),
                          image_size=(np.int64(16), np.int32(12)))
        assert cam.image_size == (16, 12)
        assert all(type(v) is int for v in cam.image_size)  # so the camera writer can encode it
        save_camera(tmp_path / "cam.json", cam)
        assert load_camera(tmp_path / "cam.json").image_size == (16, 12)

    def test_file_roundtrip(self, tmp_path):
        cam = CameraModel(
            focal_length=123.5,
            principal_point=(31.5, 30.0),
            image_size=(64, 60),
            rotation=np.eye(3),
            translation=np.array([0.1, -0.2, 0.3]),
        )
        save_camera(tmp_path / "cam.json", cam)
        cam2 = load_camera(tmp_path / "cam.json")
        assert cam2.focal_length == cam.focal_length
        assert np.array_equal(cam2.translation, cam.translation)
        assert cam2.image_size == cam.image_size


class TestRasterizer:
    def test_behind_camera_empty(self, two_joint_skeleton):
        cam = default_camera((64, 64), focal_length=60.0)
        positions = np.array([[0.0, 0.0, -2.0], [1.0, 0.0, -2.0]])
        mask = rasterize_silhouette(two_joint_skeleton, positions, cam)
        assert np.count_nonzero(mask) == 0

    def test_vertical_capsule_left_right_symmetric(self):
        skel = Skeleton(
            (
                Joint("root", None, (0.0, 0.0, 0.0), 0.1),
                Joint("top", 0, (0.0, 0.5, 0.0), 0.1),
            )
        )
        cam = default_camera((64, 64), focal_length=60.0)
        positions = np.array([[0.0, -0.25, 2.0], [0.0, 0.25, 2.0]])
        mask = rasterize_silhouette(skel, positions, cam)
        assert np.count_nonzero(mask) > 0
        assert np.array_equal(mask, mask[:, ::-1])

    @pytest.mark.parametrize("radius,depth", [(0.2, 2.0), (0.3, 3.0), (0.15, 1.5), (0.4, 5.0)])
    def test_disk_area_analytic(self, radius, depth):
        skel = sphere_skeleton(radius)
        cam = default_camera((256, 256), focal_length=300.0)
        positions = np.array([[0.0, 0.0, depth], [0.0, 0.0, depth]])
        mask = rasterize_silhouette(skel, positions, cam)
        expected = math.pi * (cam.focal_length * radius / depth) ** 2
        assert np.count_nonzero(mask) == pytest.approx(expected, rel=0.02)

    def test_matches_brute_force_oracle(self, chain_skeleton):
        rng = np.random.default_rng(41)
        cam = default_camera((64, 64), focal_length=60.0)
        for _ in range(6):
            pose = make_pose(
                chain_skeleton,
                root=(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(2.5, 5.0)),
                rotations=rng.normal(scale=0.7, size=(4, 3)),
            )
            positions = forward_kinematics(chain_skeleton, pose)
            fast = rasterize_silhouette(chain_skeleton, positions, cam)
            slow = brute_force_mask(chain_skeleton, positions, cam)
            assert np.array_equal(fast, slow)

    def test_partially_behind_camera_clipped(self, two_joint_skeleton):
        cam = default_camera((64, 64), focal_length=60.0)
        positions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 2.0]])
        mask = rasterize_silhouette(two_joint_skeleton, positions, cam)
        oracle = brute_force_mask(two_joint_skeleton, positions, cam)
        assert np.count_nonzero(mask) > 0
        assert np.array_equal(mask, oracle)

    def test_sequence_rows_are_packed_frames(self, chain_skeleton):
        # 61 x 37 = 2257 pixels: 36 words, the last one 47 bits of padding.
        cam = default_camera((61, 37), focal_length=40.0)
        rng = np.random.default_rng(5)
        positions = [
            forward_kinematics(
                chain_skeleton,
                make_pose(chain_skeleton, root=(0.0, 0.0, 3.0),
                          rotations=rng.normal(scale=0.7, size=(4, 3))),
            )
            for _ in range(5)
        ]
        rows = rasterize_sequence(chain_skeleton, iter(positions), cam)
        assert rows.dtype == np.uint64 and rows.shape == (5, 36)
        for i, pos in enumerate(positions):
            mask = rasterize_silhouette(chain_skeleton, pos, cam)
            assert np.count_nonzero(mask) > 0
            assert np.array_equal(unpack_mask(rows[i], 61, 37), mask)
            # Padding bits are clear: the row's popcount is the mask's area.
            assert kernels.pair_intersections(rows, [[i, i]])[0] == np.count_nonzero(mask)
        assert rasterize_sequence(chain_skeleton, iter([]), cam).shape == (0, 36)

    def test_wrong_joint_count(self, chain_skeleton):
        cam = default_camera((32, 32))
        with pytest.raises(StructuralError):
            rasterize_silhouette(chain_skeleton, np.zeros((2, 3)), cam)
        with pytest.raises(StructuralError):
            rasterize_sequence(chain_skeleton, [np.zeros((4, 3)), np.zeros((2, 3))], cam)
        with pytest.raises(StructuralError):
            rasterize_frames(chain_skeleton, np.zeros((4, 3)), cam)


def rotated_camera(rng, size=(61, 37)):
    """A camera with a random proper rotation and an offset."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraModel(focal_length=40.0, principal_point=(size[0] / 2.0, size[1] / 2.0),
                       image_size=size, rotation=q, translation=rng.normal(scale=0.5, size=3))


def random_posed_frames(skeleton, rng, n, camera=None):
    """``n`` frames of (J, 3) world positions of ``skeleton``. With a
    ``camera``, joints are placed at camera depths from -3 to 5, so some
    bones cross the near plane and some are entirely behind it."""
    if camera is None:
        return [
            forward_kinematics(skeleton, make_pose(skeleton, root=(0.0, 0.0, 3.0),
                                                   rotations=rng.normal(scale=0.7, size=(4, 3))))
            for _ in range(n)
        ]
    frames = []
    for _ in range(n):
        cam = rng.uniform((-1.0, -1.0, -3.0), (1.0, 1.0, 5.0), size=(len(skeleton), 3))
        frames.append((cam - camera.translation) @ camera.rotation)
    return frames


class TestBatchedRasterizer:
    @pytest.mark.parametrize("n", [0, 1, RASTER_CHUNK - 1, RASTER_CHUNK, RASTER_CHUNK + 1])
    def test_sequence_equals_per_frame_silhouettes(self, chain_skeleton, n):
        cam = default_camera((61, 37), focal_length=40.0)
        positions = random_posed_frames(chain_skeleton, np.random.default_rng(n), n)
        rows = rasterize_sequence(chain_skeleton, iter(positions), cam)
        assert rows.shape == (n, 36)
        for i, pos in enumerate(positions):
            mask = rasterize_silhouette(chain_skeleton, pos, cam)
            assert np.array_equal(unpack_mask(rows[i], 61, 37), mask)
            assert np.array_equal(mask, per_frame_silhouette(chain_skeleton, pos, cam))

    @pytest.mark.parametrize("n", [0, 1, RASTER_CHUNK - 1, RASTER_CHUNK, RASTER_CHUNK + 1])
    def test_rotated_camera_and_bones_crossing_the_near_plane(self, chain_skeleton, n):
        rng = np.random.default_rng(100 + n)
        cam = rotated_camera(rng)
        assert not np.allclose(cam.rotation, np.eye(3))
        positions = random_posed_frames(chain_skeleton, rng, n, cam)
        rows = rasterize_sequence(chain_skeleton, iter(positions), cam)
        assert rows.shape == (n, 36)
        crossing = behind = drawn = 0
        child = np.arange(1, len(chain_skeleton))
        for i, pos in enumerate(positions):
            mask = rasterize_silhouette(chain_skeleton, pos, cam)
            assert np.array_equal(unpack_mask(rows[i], 61, 37), mask)
            assert np.array_equal(mask, per_frame_silhouette(chain_skeleton, pos, cam))
            z = cam.to_camera(pos)[:, 2] > NEAR_PLANE
            front = z[chain_skeleton.parents[child]].astype(int) + z[child]
            crossing += int(np.sum(front == 1))
            behind += int(np.sum(front == 0))
            drawn += bool(mask.any())
        if n >= RASTER_CHUNK - 1:
            assert crossing > 0 and behind > 0 and drawn > 0

    def test_batched_camera_transform_equals_per_frame(self):
        # rasterize_frames transforms every frame's (B, 3) endpoints in one
        # matmul; each frame must get the bits of its own transform.
        rng = np.random.default_rng(7)
        for _ in range(5):
            cam = rotated_camera(rng)
            points = rng.normal(scale=3.0, size=(40, 14, 3))
            together = cam.to_camera(points)
            for f in range(len(points)):
                assert np.array_equal(together[f], cam.to_camera(points[f]))

    def test_frames_equal_the_frame_alone(self, chain_skeleton):
        rng = np.random.default_rng(8)
        cam = rotated_camera(rng)
        positions = np.stack(random_posed_frames(chain_skeleton, rng, 20, cam))
        masks = rasterize_frames(chain_skeleton, positions, cam)
        assert masks.shape == (20, 37, 61) and masks.dtype == bool
        for pos, mask in zip(positions, masks):
            assert np.array_equal(mask, rasterize_frames(chain_skeleton, pos[None], cam)[0])
        assert rasterize_frames(chain_skeleton, positions[:0], cam).shape == (0, 37, 61)


class TestImageDistance:
    def _mask(self, bits):
        return np.asarray(bits, dtype=bool)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        m = self._mask(rng.random((16, 16)) < 0.4)
        assert image_distance(m, m) == 0.0

    def test_disjoint_is_one(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[:4] = True
        b[4:] = True
        assert image_distance(self._mask(a), self._mask(b)) == 1.0

    def test_overlapping_columns(self):
        # Left 6 columns vs right 6 columns of a 10x10 grid.
        a = np.zeros((10, 10), dtype=bool)
        b = np.zeros((10, 10), dtype=bool)
        a[:, :6] = True
        b[:, 4:] = True
        assert image_distance(self._mask(a), self._mask(b)) == pytest.approx(0.8)
        assert image_distance(self._mask(a), self._mask(b)) == 1.0 - 20 / 100

    def test_both_empty_zero(self):
        e = self._mask(np.zeros((8, 8), dtype=bool))
        assert image_distance(e, e) == 0.0

    def test_exhaustive_count_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.random((16, 16)) < rng.uniform(0.0, 0.8)
            b = rng.random((16, 16)) < rng.uniform(0.0, 0.8)
            inter = sum(
                1 for y in range(16) for x in range(16) if a[y, x] and b[y, x]
            )
            union = sum(
                1 for y in range(16) for x in range(16) if a[y, x] or b[y, x]
            )
            expected = 0.0 if union == 0 else 1.0 - inter / union
            assert image_distance(self._mask(a), self._mask(b)) == expected

    def test_monotone_growth_toward_other(self):
        rng = np.random.default_rng(8)
        a = rng.random((12, 12)) < 0.3
        b = rng.random((12, 12)) < 0.5
        d0 = image_distance(self._mask(a), self._mask(b))
        grow = a.copy()
        candidates = np.argwhere(b & ~a)
        for y, x in candidates[:10]:
            grow[y, x] = True
            d1 = image_distance(self._mask(grow), self._mask(b))
            assert d1 <= d0 + 1e-15
            d0 = d1

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            image_distance(
                self._mask(np.zeros((4, 4), dtype=bool)),
                self._mask(np.zeros((4, 5), dtype=bool)),
            )

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = self._mask(rng.random((10, 10)) < 0.5)
            b = self._mask(rng.random((10, 10)) < 0.5)
            d = image_distance(a, b)
            assert 0.0 <= d <= 1.0
            assert d == image_distance(b, a)


def test_pgm_output(tmp_path):
    bits = np.zeros((4, 6), dtype=bool)
    bits[1, 2] = True
    out = tmp_path / "m.pgm"
    write_pgm(bits.view(np.uint8) * 255, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n6 4\n255\n")
    assert data[-24:].count(255) == 1


@pytest.mark.parametrize(
    "image",
    [
        pytest.param(np.zeros((4, 6), dtype=bool), id="bool-mask"),
        pytest.param(np.zeros((4, 6), dtype=np.int64), id="int64"),
        pytest.param(np.zeros((4, 6), dtype=np.float64), id="float64"),
        pytest.param(np.zeros((2, 4, 6), dtype=np.uint8), id="3-d"),
        pytest.param(np.zeros(24, dtype=np.uint8), id="1-d"),
    ],
)
def test_pgm_refuses_anything_but_a_uint8_image(tmp_path, image):
    out = tmp_path / "m.pgm"
    with pytest.raises(StructuralError, match="uint8"):
        write_pgm(image, out)
    assert not out.exists()


def test_masks_are_bool_images(chain_skeleton):
    cam = default_camera((61, 37), focal_length=40.0)
    pose = make_pose(chain_skeleton, root=(0.0, 0.0, 3.0))
    positions = forward_kinematics(chain_skeleton, pose)
    mask = rasterize_silhouette(chain_skeleton, positions, cam)
    row = rasterize_sequence(chain_skeleton, iter([positions]), cam)[0]
    for m in (mask, unpack_mask(row, 61, 37)):
        assert isinstance(m, np.ndarray) and m.dtype == bool and m.shape == (37, 61)
    assert np.array_equal(unpack_mask(row, 61, 37), mask) and mask.any()
