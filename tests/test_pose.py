import json
import math

import numpy as np
import pytest

from motiongraph import fixtures
from motiongraph.errors import GraphParseError, StructuralError, ValidationError
from motiongraph.pose import (
    Joint,
    JointState,
    PoseFrame,
    Skeleton,
    batch_forward_kinematics,
    compute_joint_states,
    forward_kinematics,
    interpolate_pose,
    PAIR_CHUNK,
    load_pose_track,
    pair_distances,
    pose_distance,
    save_pose_track,
    state_rows,
)

from conftest import make_pose, make_sequence
from oracles import per_frame_forward_kinematics


class TestSkeletonValidation:
    def test_root_must_be_first(self):
        with pytest.raises(ValidationError):
            Skeleton((Joint("a", 0, (1, 0, 0), 0.1),))

    def test_single_root_only(self):
        with pytest.raises(ValidationError):
            Skeleton(
                (
                    Joint("r1", None, (0, 0, 0), 0.1),
                    Joint("r2", None, (0, 0, 0), 0.1),
                )
            )

    def test_parent_before_child(self):
        with pytest.raises(ValidationError):
            Skeleton(
                (
                    Joint("root", None, (0, 0, 0), 0.1),
                    Joint("a", 2, (1, 0, 0), 0.1),
                    Joint("b", 0, (1, 0, 0), 0.1),
                )
            )

    def test_positive_radius(self):
        with pytest.raises(ValidationError):
            Skeleton((Joint("root", None, (0, 0, 0), 0.0),))

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_finite_radius(self, radius):
        # An infinite radius fills every silhouette, so every d_img would be 0.
        with pytest.raises(ValidationError, match="capsule_radius must be a finite number > 0"):
            Skeleton((Joint("root", None, (0, 0, 0), 0.1), Joint("a", 0, (1, 0, 0), radius)))

    @pytest.mark.parametrize("parent", [0.5, 0.0, True, "0", np.float64(0.0)])
    def test_parent_must_be_an_integer(self, parent):
        # A fractional parent is refused, not truncated to the joint before it.
        with pytest.raises(ValidationError, match="not the index of an earlier joint"):
            Skeleton((Joint("root", None, (0, 0, 0), 0.1), Joint("a", parent, (1, 0, 0), 0.1)))

    @pytest.mark.parametrize("parent", [np.int64(0), np.int32(0), np.uint8(0)])
    def test_numpy_integer_parent_accepted(self, tmp_path, parent):
        joints = (Joint("root", None, (0, 0, 0), 0.1), Joint("a", parent, (1, 0, 0), 0.1))
        skeleton = Skeleton(joints)
        assert skeleton.parents.tolist() == [-1, 0]
        assert type(skeleton.joints[1].parent) is int  # so the pose-track writer can encode it
        sequence = make_sequence(skeleton, lambda t: ((0, 0, 3.0), None), 2)
        save_pose_track(tmp_path / "track.json", skeleton, sequence)
        assert load_pose_track(tmp_path / "track.json")[0] == skeleton

    def test_joint_arrays_are_cached_read_only(self, chain_skeleton):
        want = {
            "parents": [-1 if j.parent is None else j.parent for j in chain_skeleton.joints],
            "offsets": [list(j.rest_offset) for j in chain_skeleton.joints],
            "radii": [j.capsule_radius for j in chain_skeleton.joints],
        }
        for name, values in want.items():
            arr = getattr(chain_skeleton, name)
            assert arr.tolist() == values
            assert getattr(chain_skeleton, name) is arr  # built once per skeleton
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7
        assert chain_skeleton.parents.dtype == np.int64
        assert chain_skeleton.offsets.shape == (4, 3) and chain_skeleton.radii.shape == (4,)


class TestPoseFrame:
    @pytest.mark.parametrize("index", [1.5, True, -1, "0", None])
    def test_frame_index_is_an_integer_at_least_0(self, index):
        with pytest.raises(ValidationError, match="frame_index must be an integer >= 0"):
            PoseFrame(index, np.zeros(3), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "root, rotations, message",
        [
            pytest.param(["0", "0", "2.5"], np.zeros((2, 3)),
                         "frame 3 root_translation must be a finite real array of shape (3,), "
                         "got dtype <U3", id="text-root"),
            pytest.param(np.zeros(3), [[True, False, True], [0.0, 0.0, 0.0]],
                         "frame 3 joint_rotations must be a finite real array of shape "
                         "(None, 3), got a boolean entry", id="boolean-rotations"),
            pytest.param(np.zeros(3), [[0.0, 0.0, 0.0], [0.0]],
                         "frame 3 joint_rotations must be a finite real array of shape "
                         "(None, 3), got a ragged nesting", id="ragged-rotations"),
            pytest.param(np.zeros(2), np.zeros((2, 3)),
                         "frame 3 root_translation must be a finite real array of shape (3,), "
                         "got shape (2,)", id="short-root"),
            pytest.param(np.zeros(3), np.zeros(6),
                         "frame 3 joint_rotations must be a finite real array of shape "
                         "(None, 3), got shape (6,)", id="flat-rotations"),
            pytest.param(np.zeros(3), np.full((2, 3), math.inf),
                         "frame 3 joint_rotations must be a finite real array of shape "
                         "(None, 3), got nan, inf or -inf", id="infinite-rotations"),
        ],
    )
    def test_arrays_are_refused_not_converted(self, root, rotations, message):
        with pytest.raises(ValidationError) as err:
            PoseFrame(3, root, rotations)
        assert str(err.value) == message

    def test_float64_arrays_are_kept_and_the_index_stored_as_an_int(self):
        root, rotations = np.zeros(3), np.zeros((2, 3))
        frame = PoseFrame(np.int64(2), root, rotations)
        assert frame.root_translation is root and frame.joint_rotations is rotations
        assert frame.frame_index == 2 and type(frame.frame_index) is int


class TestJointValues:
    @pytest.mark.parametrize(
        "offset, problem",
        [((1.0, 0.0), "shape (2,)"), ("abc", "dtype <U3"), ((1.0, True, 0.0), "a boolean entry"),
         ((1.0, math.nan, 0.0), "nan, inf or -inf")],
    )
    def test_rest_offset_is_three_finite_numbers(self, offset, problem):
        with pytest.raises(ValidationError) as err:
            Skeleton((Joint("root", None, (0, 0, 0), 0.1), Joint("a", 0, offset, 0.1)))
        assert str(err.value) == ("joint 1 ('a') rest_offset must be a finite real array of "
                                  f"shape (3,), got {problem}")

    def test_name_must_be_a_string(self):
        with pytest.raises(ValidationError, match="joint 1 name must be a string, got 7"):
            Skeleton((Joint("root", None, (0, 0, 0), 0.1), Joint(7, 0, (1, 0, 0), 0.1)))

    def test_numpy_values_stored_as_python_floats(self):
        joint = Skeleton((Joint("root", None, np.ones(3, np.float32), np.float32(0.25)),)).joints[0]
        assert joint.rest_offset == (1.0, 1.0, 1.0) and joint.capsule_radius == 0.25
        assert all(type(v) is float for v in (*joint.rest_offset, joint.capsule_radius))


class TestForwardKinematics:
    def test_identity_pose_sums_offsets(self, chain_skeleton):
        pose = make_pose(chain_skeleton)
        positions = forward_kinematics(chain_skeleton, pose)
        # With zero rotations each joint is the running sum of chain offsets.
        assert np.allclose(positions[0], [0, 0, 0])
        assert np.allclose(positions[1], [1, 0, 0])
        assert np.allclose(positions[2], [1, 2, 0])
        assert np.allclose(positions[3], [1, 2, 0.5])

    def test_quarter_turn_about_z(self, two_joint_skeleton):
        rot = np.zeros((2, 3))
        rot[0, 2] = math.pi / 2
        pose = make_pose(two_joint_skeleton, rotations=rot)
        positions = forward_kinematics(two_joint_skeleton, pose)
        assert np.allclose(positions[1], [0, 1, 0], atol=1e-9)

    def test_translation_equivariance(self, chain_skeleton):
        rng = np.random.default_rng(3)
        rot = rng.normal(scale=0.6, size=(4, 3))
        base = forward_kinematics(chain_skeleton, make_pose(chain_skeleton, rotations=rot))
        moved = forward_kinematics(
            chain_skeleton, make_pose(chain_skeleton, root=(0, 0, 5), rotations=rot)
        )
        assert np.allclose(moved - base, [0.0, 0.0, 5.0])

    def test_determinism(self, chain_skeleton):
        rng = np.random.default_rng(11)
        rot = rng.normal(scale=0.8, size=(4, 3))
        pose = make_pose(chain_skeleton, rotations=rot)
        a = forward_kinematics(chain_skeleton, pose)
        b = forward_kinematics(chain_skeleton, pose)
        assert np.array_equal(a, b)

    def test_rigidity(self, chain_skeleton):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pose = make_pose(chain_skeleton, rotations=rng.normal(scale=1.2, size=(4, 3)))
            positions = forward_kinematics(chain_skeleton, pose)
            for i, joint in enumerate(chain_skeleton.joints):
                if joint.parent is None:
                    continue
                bone = np.linalg.norm(positions[i] - positions[joint.parent])
                assert bone == pytest.approx(np.linalg.norm(joint.rest_offset), abs=1e-9)

    def test_joint_count_mismatch(self, chain_skeleton):
        pose = make_pose(chain_skeleton)
        bad = make_pose(chain_skeleton, rotations=np.zeros((2, 3)))
        with pytest.raises(StructuralError):
            forward_kinematics(chain_skeleton, bad)
        forward_kinematics(chain_skeleton, pose)

    def test_non_finite_rotation_rejected(self, chain_skeleton):
        rot = np.zeros((4, 3))
        rot[1, 0] = np.nan
        with pytest.raises(ValidationError):
            make_pose(chain_skeleton, rotations=rot)


class TestJointStates:
    def test_constant_pose_zero_velocity(self, chain_skeleton):
        seq = make_sequence(chain_skeleton, lambda t: ((0, 0, 0), None), 10)
        states = compute_joint_states(chain_skeleton, seq)
        for s in states:
            assert np.array_equal(s.velocities, np.zeros_like(s.velocities))

    def test_rigid_translation_velocity(self, chain_skeleton):
        seq = make_sequence(chain_skeleton, lambda t: ((0.1 * t, 0, 0), None), 12)
        states = compute_joint_states(chain_skeleton, seq)
        for s in states:
            assert np.allclose(s.velocities, [[0.1, 0, 0]] * 4, atol=1e-12)

    def test_sinusoidal_matches_finite_difference_oracle(self, two_joint_skeleton):
        def pose_fn(t):
            rot = np.zeros((2, 3))
            rot[0, 2] = 0.8 * math.sin(0.21 * t)
            return (0, 0, 0), rot

        n = 40
        seq = make_sequence(two_joint_skeleton, pose_fn, n)
        states = compute_joint_states(two_joint_skeleton, seq)

        # Oracle: positions computed directly from the analytic pose, then
        # central differences (interior) with boundary replication.
        tip = np.array(
            [
                [math.cos(0.8 * math.sin(0.21 * t)), math.sin(0.8 * math.sin(0.21 * t)), 0.0]
                for t in range(n)
            ]
        )
        expected = np.zeros_like(tip)
        expected[1:-1] = (tip[2:] - tip[:-2]) * 0.5
        expected[0] = expected[1]
        expected[-1] = expected[-2]
        got = np.array([s.velocities[1] for s in states])
        assert np.allclose(got, expected, atol=1e-9)

    def test_boundary_velocities_replicate_neighbor(self, two_joint_skeleton):
        def pose_fn(t):
            rot = np.zeros((2, 3))
            rot[0, 2] = 0.05 * t * t  # accelerating: one-sided != central
            return (0, 0, 0), rot

        seq = make_sequence(two_joint_skeleton, pose_fn, 9)
        states = compute_joint_states(two_joint_skeleton, seq)
        assert np.array_equal(states[0].velocities, states[1].velocities)
        assert np.array_equal(states[-1].velocities, states[-2].velocities)

    @pytest.mark.parametrize("fps", [math.inf, math.nan, 0.0, -30.0, True, "30", None])
    def test_fps_must_be_finite_and_positive(self, fps):
        from motiongraph.pose import MotionSequence

        with pytest.raises(ValidationError, match="fps must be a finite number > 0"):
            MotionSequence(fps=fps, frames=[])

    def test_fps_stored_as_a_float(self):
        from motiongraph.pose import MotionSequence

        for fps in (30, np.float32(30)):
            assert type(MotionSequence(fps=fps, frames=[]).fps) is float

    def test_empty_sequence_rejected(self, chain_skeleton):
        from motiongraph.pose import MotionSequence

        with pytest.raises(ValidationError):
            compute_joint_states(chain_skeleton, MotionSequence(fps=30.0, frames=[]))


class TestBatchForwardKinematics:
    """Bit-equality with the per-frame formula, one joint and one 3x3 product
    at a time."""

    def assert_bit_equal(self, skeleton, frames):
        got = batch_forward_kinematics(skeleton, frames)
        assert got.shape == (len(frames), len(skeleton), 3)
        want = np.array([per_frame_forward_kinematics(skeleton, f) for f in frames])
        assert got.tobytes() == want.reshape(got.shape).tobytes()
        return got

    def test_fixture_reference_frames(self):
        self.assert_bit_equal(fixtures.puppet_skeleton(), fixtures.puppet_sequence(2000).frames)

    def test_zero_rotations(self, chain_skeleton):
        frames = [make_pose(chain_skeleton, i, root=(0.1 * i, 0.0, 2.0)) for i in range(3)]
        got = self.assert_bit_equal(chain_skeleton, frames)
        assert got[1].tolist() == [[0.1, 0, 2], [1.1, 0, 2], [1.1, 2, 2], [1.1, 2, 2.5]]

    def test_angles_around_the_identity_cutoff(self, chain_skeleton):
        rng = np.random.default_rng(12)
        below, above = np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0)
        angles = [0.0, 1e-13, below, 1e-12, above, 2e-12, 1e-6, 1.0]
        frames = []
        for i, angle in enumerate(angles):
            axes = rng.normal(size=(4, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            frames.append(make_pose(chain_skeleton, i, rotations=axes * angle))
        frames.append(make_pose(chain_skeleton, len(angles), rotations=[[below, 0, 0], [above, 0, 0],
                                                                        [0, 1e-12, 0], [0, 0, -above]]))
        norms = [np.linalg.norm(r) for f in frames for r in f.joint_rotations]
        assert min(norms) < 1e-12 <= max(n for n in norms if n < 1e-11)
        self.assert_bit_equal(chain_skeleton, frames)

    def test_one_joint_skeleton(self):
        skeleton = Skeleton((Joint("root", None, (0.5, 0.0, 0.0), 0.1),))
        frames = [PoseFrame(i, np.array([i, 1.0, 2.0]), np.full((1, 3), 0.3 * i)) for i in range(3)]
        got = self.assert_bit_equal(skeleton, frames)
        assert got[:, 0].tolist() == [[0, 1, 2], [1, 1, 2], [2, 1, 2]]

    def test_single_frame_is_forward_kinematics(self, chain_skeleton):
        rng = np.random.default_rng(2)
        pose = make_pose(chain_skeleton, root=(0.2, -1.0, 3.0), rotations=rng.normal(size=(4, 3)))
        got = self.assert_bit_equal(chain_skeleton, [pose])
        assert forward_kinematics(chain_skeleton, pose).tobytes() == got[0].tobytes()

    def test_no_frames(self, chain_skeleton):
        assert batch_forward_kinematics(chain_skeleton, []).shape == (0, 4, 3)

    def test_joint_count_mismatch_in_any_frame(self, chain_skeleton):
        frames = [make_pose(chain_skeleton, 0), PoseFrame(1, np.zeros(3), np.zeros((3, 3)))]
        with pytest.raises(StructuralError, match="3 rotations for a 4-joint skeleton"):
            batch_forward_kinematics(chain_skeleton, frames)


class TestPoseDistance:
    def test_identical_states_zero(self):
        s = JointState(np.ones((3, 3)), np.zeros((3, 3)))
        assert pose_distance(s, s) == 0.0

    def test_three_four_five(self):
        a = JointState(np.array([[0.0, 0.0, 0.0]]), np.zeros((1, 3)))
        b = JointState(np.array([[3.0, 4.0, 0.0]]), np.zeros((1, 3)))
        assert pose_distance(a, b, velocity_weight=123.0) == 5.0

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = JointState(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
            b = JointState(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
            assert pose_distance(a, b) == pose_distance(b, a)

    def test_velocity_weight_scales_velocity_term(self):
        a = JointState(np.zeros((2, 3)), np.zeros((2, 3)))
        b = JointState(np.zeros((2, 3)), np.array([[1.0, 0, 0], [0, 0, 0]]))
        assert pose_distance(a, b, velocity_weight=0.0) == 0.0
        assert pose_distance(a, b, velocity_weight=2.0) == pytest.approx(2.0)

    def test_triangle_inequality_per_term(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = [JointState(rng.normal(size=(4, 3)), rng.normal(size=(4, 3))) for _ in range(3)]
            for w in (0.0, 1.0):
                ab = pose_distance(p[0], p[1], w)
                bc = pose_distance(p[1], p[2], w)
                ac = pose_distance(p[0], p[2], w)
                assert ac <= ab + bc + 1e-12

    def test_joint_count_mismatch(self):
        a = JointState(np.zeros((2, 3)), np.zeros((2, 3)))
        b = JointState(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(StructuralError):
            pose_distance(a, b)


class TestPairDistances:
    @pytest.mark.parametrize("velocity_weight", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("n_pairs", [1, PAIR_CHUNK - 1, PAIR_CHUNK + 1, 2 * PAIR_CHUNK + 5])
    def test_bit_equal_to_pose_distance(self, velocity_weight, n_pairs):
        rng = np.random.default_rng(n_pairs)
        # 15 joints, as the fixture puppet has: 45 values per row.
        states = [JointState(rng.normal(size=(15, 3)), rng.normal(scale=0.1, size=(15, 3)))
                  for _ in range(300)]
        mm, nn = rng.integers(0, len(states), size=(2, n_pairs))
        got = pair_distances(*state_rows(states), mm, nn, velocity_weight)
        want = np.array([pose_distance(states[m], states[n], velocity_weight)
                         for m, n in zip(mm.tolist(), nn.tolist())])
        assert got.tobytes() == want.tobytes()

    def test_joint_states_of_a_sequence(self, chain_skeleton):
        sequence = make_sequence(
            chain_skeleton,
            lambda t: ((0.01 * t, 0.0, 0.0), np.full((4, 3), 0.05 * math.sin(t / 5))),
            60,
        )
        states = compute_joint_states(chain_skeleton, sequence)
        mm, nn = np.triu_indices(len(states), k=2)
        got = pair_distances(*state_rows(states), mm, nn)
        want = np.array([pose_distance(states[m], states[n]) for m, n in zip(mm, nn)])
        assert got.tobytes() == want.tobytes()

    def test_joint_count_mismatch_names_the_state(self):
        states = [JointState(np.zeros((2, 3)), np.zeros((2, 3)))] * 3
        states.append(JointState(np.zeros((3, 3)), np.zeros((3, 3))))
        with pytest.raises(StructuralError, match="joint state 3"):
            state_rows(states)

    def test_no_pairs(self):
        states = [JointState(np.zeros((2, 3)), np.zeros((2, 3)))] * 3
        empty = np.zeros(0, dtype=np.int64)
        assert pair_distances(*state_rows(states), empty, empty).shape == (0,)


class TestInterpolatePose:
    def test_alpha_zero_bit_identical(self, chain_skeleton):
        rng = np.random.default_rng(2)
        a = make_pose(chain_skeleton, rotations=rng.normal(size=(4, 3)))
        b = make_pose(chain_skeleton, rotations=rng.normal(size=(4, 3)))
        out = interpolate_pose(a, b, 0.0)
        assert out is a
        assert interpolate_pose(a, b, 1.0) is b

    def test_midpoint(self, two_joint_skeleton):
        a = make_pose(two_joint_skeleton, rotations=[[0.2, 0, 0], [0, 0, 0]])
        b = make_pose(two_joint_skeleton, rotations=[[0.6, 0, 0], [0, 0, 0]])
        mid = interpolate_pose(a, b, 0.5)
        assert np.allclose(mid.joint_rotations[0], [0.4, 0, 0])

    def test_quarter_blend_matches_direct_arithmetic(self, chain_skeleton):
        rng = np.random.default_rng(9)
        a = make_pose(chain_skeleton, root=rng.normal(size=3), rotations=rng.normal(size=(4, 3)))
        b = make_pose(chain_skeleton, root=rng.normal(size=3), rotations=rng.normal(size=(4, 3)))
        out = interpolate_pose(a, b, 0.25)
        assert np.allclose(out.joint_rotations, 0.75 * a.joint_rotations + 0.25 * b.joint_rotations, atol=1e-12)
        assert np.allclose(out.root_translation, 0.75 * a.root_translation + 0.25 * b.root_translation, atol=1e-12)

    def test_affine_property(self, chain_skeleton):
        rng = np.random.default_rng(31)
        for alpha in (0.1, 0.37, 0.5, 0.93):
            a = make_pose(chain_skeleton, root=rng.normal(size=3), rotations=rng.normal(size=(4, 3)))
            b = make_pose(chain_skeleton, root=rng.normal(size=3), rotations=rng.normal(size=(4, 3)))
            lo = interpolate_pose(a, b, alpha)
            hi = interpolate_pose(a, b, 1.0 - alpha)
            assert np.allclose(
                lo.joint_rotations + hi.joint_rotations,
                a.joint_rotations + b.joint_rotations,
                atol=1e-12,
            )

    def test_alpha_out_of_range(self, chain_skeleton):
        a = make_pose(chain_skeleton)
        with pytest.raises(ValidationError):
            interpolate_pose(a, a, 1.5)
        with pytest.raises(ValidationError):
            interpolate_pose(a, a, -0.1)


class TestPoseTrackFile:
    def test_roundtrip(self, tmp_path, chain_skeleton):
        rng = np.random.default_rng(77)
        seq = make_sequence(
            chain_skeleton, lambda t: (rng.normal(size=3), rng.normal(size=(4, 3))), 7
        )
        path = tmp_path / "track.json"
        save_pose_track(path, chain_skeleton, seq)
        skel2, seq2 = load_pose_track(path)
        assert skel2 == chain_skeleton
        assert len(seq2) == 7
        assert seq2.fps == seq.fps
        for a, b in zip(seq.frames, seq2.frames):
            assert np.array_equal(a.root_translation, b.root_translation)
            assert np.array_equal(a.joint_rotations, b.joint_rotations)

    @pytest.mark.parametrize(
        "fps, message",
        [pytest.param(math.inf, "fps must be a finite number > 0", id="inf"),
         pytest.param(math.nan, "NaN is not a JSON number", id="nan"),
         pytest.param(True, "fps must be a finite number > 0", id="True"),
         pytest.param("30", "fps must be a finite number > 0", id="30")],
    )
    def test_non_finite_fps_is_parse_error(self, tmp_path, chain_skeleton, fps, message):
        path = tmp_path / "track.json"
        sequence = make_sequence(chain_skeleton, lambda t: ((0, 0, 3.0), None), 3)
        save_pose_track(path, chain_skeleton, sequence)
        doc = json.loads(path.read_text())
        doc["fps"] = fps
        # Infinity is no JSON number, but 1e400 is one, and it decodes to inf.
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        with pytest.raises(GraphParseError, match=message):
            load_pose_track(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [("parent", 0.5, "not the index of an earlier joint"),
         ("parent", True, "not the index of an earlier joint"),
         ("radius", math.inf, "capsule_radius must be a finite number > 0"),
         ("radius", "0.1", "capsule_radius must be a finite number > 0")],
    )
    def test_bad_joint_is_parse_error(self, tmp_path, chain_skeleton, field, value, message):
        path = tmp_path / "track.json"
        sequence = make_sequence(chain_skeleton, lambda t: ((0, 0, 3.0), None), 3)
        save_pose_track(path, chain_skeleton, sequence)
        doc = json.loads(path.read_text())
        doc["skeleton"]["joints"][2][field] = value
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))  # 1e400 decodes to inf
        with pytest.raises(GraphParseError, match=message):
            load_pose_track(path)
