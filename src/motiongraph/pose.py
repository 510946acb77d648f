"""Skeleton model, forward kinematics, joint-state distances, pose blending.

The body is a capsule skeleton: an ordered joint hierarchy where every
non-root joint hangs off its parent by a fixed rest offset and carries a
capsule radius used for silhouette rendering. A pose is the root position
plus one axis-angle rotation per joint; rotations compose parent-to-child.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (StructuralError, ValidationError, integer, is_integer, read_document,
                     real, reals, string)


@dataclass(frozen=True)
class Joint:
    name: str
    parent: int | None  # index into the joint list, None for the root
    rest_offset: tuple[float, float, float]  # meters, in the parent frame
    capsule_radius: float  # meters


@dataclass(frozen=True)
class Skeleton:
    """Joint hierarchy in topological order (parent index < own index)."""

    joints: tuple[Joint, ...]

    def __post_init__(self):
        if not self.joints:
            raise ValidationError("skeleton needs at least one joint")
        roots = [i for i, j in enumerate(self.joints) if j.parent is None]
        if roots != [0]:
            raise ValidationError(
                f"expected exactly one root joint at index 0, got roots={roots}"
            )
        joints = []
        for i, j in enumerate(self.joints):
            string(f"joint {i} name", j.name)
            name = f"joint {i} ({j.name!r})"
            if j.parent is not None and not (is_integer(j.parent) and 0 <= j.parent < i):
                raise ValidationError(
                    f"{name} has parent {j.parent!r}, which is not the index of an earlier joint"
                )
            # The JSON writer needs int parents and float offsets and radii. An
            # infinite radius would fill every silhouette, making every d_img 0.
            joints.append(replace(
                j, parent=None if j.parent is None else int(j.parent),
                rest_offset=tuple(reals(f"{name} rest_offset", j.rest_offset, (3,)).tolist()),
                capsule_radius=real(f"{name} capsule_radius", j.capsule_radius, 0, above=True)))
        object.__setattr__(self, "joints", tuple(joints))

    def __len__(self) -> int:
        return len(self.joints)

    # The joint tuple is immutable, so each array is built once, read-only.
    @cached_property
    def parents(self) -> np.ndarray:
        return _frozen([-1 if j.parent is None else j.parent for j in self.joints], np.int64)

    @cached_property
    def offsets(self) -> np.ndarray:
        return _frozen([j.rest_offset for j in self.joints], np.float64)

    @cached_property
    def radii(self) -> np.ndarray:
        return _frozen([j.capsule_radius for j in self.joints], np.float64)


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PoseFrame:
    """One frame of animation: root position + per-joint axis-angle rotations."""

    frame_index: int
    root_translation: np.ndarray  # (3,) meters
    joint_rotations: np.ndarray  # (J, 3) axis-angle, radians

    def __post_init__(self):
        i = integer("frame_index", self.frame_index, 0)
        object.__setattr__(self, "frame_index", i)
        object.__setattr__(self, "root_translation",
                           reals(f"frame {i} root_translation", self.root_translation, (3,)))
        object.__setattr__(self, "joint_rotations",
                           reals(f"frame {i} joint_rotations", self.joint_rotations, (None, 3)))


@dataclass(frozen=True)
class JointState:
    """World-space joint positions and velocities for one frame."""

    positions: np.ndarray  # (J, 3) meters
    velocities: np.ndarray  # (J, 3) meters/frame


@dataclass
class MotionSequence:
    """Ordered pose frames at a fixed frame rate."""

    fps: float
    frames: list[PoseFrame]

    def __post_init__(self):
        self.fps = real("fps", self.fps, 0, above=True)
        for i, f in enumerate(self.frames):
            if f.frame_index != i:
                raise ValidationError(
                    f"frame indices must increase by 1 from 0; frame {i} "
                    f"carries index {f.frame_index}"
                )

    def __len__(self) -> int:
        return len(self.frames)


def _axis_angle_matrices(aa: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (M, 3, 3) of (M, 3) axis-angle rows; the identity
    for angles below 1e-12.

    Each angle is the square root of its row's BLAS dot with itself, the
    norm ``np.linalg.norm`` takes; the entries are elementwise products and
    sums of the unit axis, cos and sin, so every row gets the bits of a
    one-row call.
    """
    angle = np.sqrt(aa[:, None, :] @ aa[:, :, None])[:, 0, 0]
    small = angle < 1e-12
    x, y, z = (aa / np.where(small, 1.0, angle)[:, None]).T
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    rot = np.stack(
        [
            t * x * x + c, t * x * y - s * z, t * x * z + s * y,
            t * x * y + s * z, t * y * y + c, t * y * z - s * x,
            t * x * z - s * y, t * y * z + s * x, t * z * z + c,
        ],
        axis=-1,
    ).reshape(-1, 3, 3)
    rot[small] = np.eye(3)
    return rot


def batch_forward_kinematics(skeleton: Skeleton, frames: Sequence[PoseFrame]) -> np.ndarray:
    """World positions (F, J, 3) of all joints for each of ``frames``.

    The root sits at ``root_translation``; each child sits at its parent's
    position displaced by the parent's world rotation applied to the child's
    rest offset. The root's own rest offset is not used. The loop runs over
    joints; each product is one ``np.matmul`` over the frames' stacked
    (3, 3) matrices, which makes the same BLAS call per frame as one frame
    alone, so a frame's positions do not depend on the other frames.
    """
    n = len(skeleton)
    for pose in frames:
        if pose.joint_rotations.shape[0] != n:
            raise StructuralError(
                f"pose has {pose.joint_rotations.shape[0]} rotations for a "
                f"{n}-joint skeleton"
            )
    f = len(frames)
    local = _axis_angle_matrices(
        np.array([pose.joint_rotations for pose in frames]).reshape(f * n, 3)
    ).reshape(f, n, 3, 3)
    parents = skeleton.parents
    offsets = skeleton.offsets
    positions = np.empty((f, n, 3))
    rotations = np.empty((f, n, 3, 3))
    positions[:, 0] = np.array([pose.root_translation for pose in frames]).reshape(f, 3)
    rotations[:, 0] = local[:, 0]
    for i in range(1, n):
        p = parents[i]
        positions[:, i] = positions[:, p] + rotations[:, p] @ offsets[i]
        rotations[:, i] = rotations[:, p] @ local[:, i]
    return positions


def forward_kinematics(skeleton: Skeleton, pose: PoseFrame) -> np.ndarray:
    """World positions (J, 3) of all joints for one pose: the one-frame case
    of ``batch_forward_kinematics``."""
    return batch_forward_kinematics(skeleton, [pose])[0]


def compute_joint_states(skeleton: Skeleton, sequence: MotionSequence) -> list[JointState]:
    """Positions via FK plus finite-difference velocities in meters/frame.

    Interior frames use the central difference (p[t+1] - p[t-1]) / 2; the two
    boundary frames copy their adjacent interior value, so a sequence's first
    two (and last two) frames always share a velocity.
    """
    if not sequence.frames:
        raise ValidationError("cannot compute joint states of an empty sequence")
    positions = batch_forward_kinematics(skeleton, sequence.frames)
    t = positions.shape[0]
    velocities = np.zeros_like(positions)
    if t >= 3:
        velocities[1:-1] = (positions[2:] - positions[:-2]) * 0.5
        velocities[0] = velocities[1]
        velocities[-1] = velocities[-2]
    elif t == 2:
        velocities[0] = velocities[1] = positions[1] - positions[0]
    return [JointState(positions[i], velocities[i]) for i in range(t)]


def pose_distance(
    state_m: JointState, state_n: JointState, velocity_weight: float = 1.0
) -> float:
    """3D-space pose dissimilarity between two joint states.

    Root-summed Euclidean distance over all joint positions, plus
    ``velocity_weight`` times the same over joint velocities. Symmetric,
    non-negative, zero only for identical states.
    """
    if state_m.positions.shape != state_n.positions.shape:
        raise StructuralError(
            f"joint count mismatch: {state_m.positions.shape} vs {state_n.positions.shape}"
        )
    dp = float(np.linalg.norm(state_m.positions - state_n.positions))
    dv = float(np.linalg.norm(state_m.velocities - state_n.velocities))
    return dp + velocity_weight * dv


#: Pairs whose row differences ``pair_distances`` holds at a time.
PAIR_CHUNK = 4096


def state_rows(joint_states: Sequence[JointState]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of each joint state, flattened to (N, 3J) rows."""
    for i, s in enumerate(joint_states):
        if s.positions.shape != joint_states[0].positions.shape:
            raise StructuralError(f"joint state {i} has positions {s.positions.shape}, "
                                  f"joint state 0 {joint_states[0].positions.shape}")
    pos = np.stack([s.positions.ravel() for s in joint_states]).astype(np.float64)
    vel = np.stack([s.velocities.ravel() for s in joint_states]).astype(np.float64)
    return pos, vel


def pair_distances(
    positions: np.ndarray,
    velocities: np.ndarray,
    mm: np.ndarray,
    nn: np.ndarray,
    velocity_weight: float = 1.0,
) -> np.ndarray:
    """``pose_distance`` of the states in rows ``mm[i]`` and ``nn[i]`` of
    ``state_rows``'s arrays, bit for bit, ``PAIR_CHUNK`` pairs at a time.

    Each norm is the square root of one row difference's dot with itself,
    taken as a stack of (1, 3J) @ (3J, 1) products: ``np.matmul`` gives each
    one the BLAS dot that ``np.linalg.norm`` takes. (A batched ``einsum``
    moves about a third of the values by 1 ulp.)
    """
    def norms(d):
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])

    out = np.empty(len(mm), dtype=np.float64)
    for lo in range(0, out.size, PAIR_CHUNK):
        m, n = mm[lo : lo + PAIR_CHUNK], nn[lo : lo + PAIR_CHUNK]
        out[lo : lo + PAIR_CHUNK] = (norms(positions[m] - positions[n])
                                     + velocity_weight * norms(velocities[m] - velocities[n]))
    return out


def interpolate_pose(pose_i: PoseFrame, pose_j: PoseFrame, alpha: float) -> PoseFrame:
    """Linear blend (1-alpha)*pose_i + alpha*pose_j of rotations and root.

    The endpoints return the inputs untouched, so alpha=0 and alpha=1 are
    bit-exact. Blending is done directly on axis-angle components; near-pi
    rotations can take the long way around, which is acceptable for the
    small inter-frame deltas this engine blends.
    """
    if pose_i.joint_rotations.shape != pose_j.joint_rotations.shape:
        raise StructuralError("cannot interpolate poses with different joint counts")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return pose_i
    if alpha == 1.0:
        return pose_j
    return PoseFrame(
        frame_index=pose_i.frame_index,
        root_translation=(1.0 - alpha) * pose_i.root_translation
        + alpha * pose_j.root_translation,
        joint_rotations=(1.0 - alpha) * pose_i.joint_rotations
        + alpha * pose_j.joint_rotations,
    )


# ---------------------------------------------------------------------------
# pose track file (the reference-performance input)
# ---------------------------------------------------------------------------

POSE_TRACK_FORMAT = "pose-track/1"


def save_pose_track(path: str | Path, skeleton: Skeleton, sequence: MotionSequence) -> None:
    """Write skeleton + frames as a pose-track JSON document."""
    doc = {
        "format": POSE_TRACK_FORMAT,
        "fps": sequence.fps,
        "skeleton": {
            "joints": [
                {
                    "name": j.name,
                    "parent": j.parent,
                    "offset": list(j.rest_offset),
                    "radius": j.capsule_radius,
                }
                for j in skeleton.joints
            ]
        },
        "frames": [
            {
                "root": f.root_translation.tolist(),
                "rotations": f.joint_rotations.tolist(),
            }
            for f in sequence.frames
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_pose_track(path: str | Path) -> tuple[Skeleton, MotionSequence]:
    """Read a pose-track JSON document back into skeleton + sequence."""

    def build(doc):
        joints = tuple(
            Joint(name=j["name"], parent=j["parent"], rest_offset=j["offset"],
                  capsule_radius=j["radius"])
            for j in doc["skeleton"]["joints"]
        )
        frames = [
            PoseFrame(frame_index=i, root_translation=f["root"], joint_rotations=f["rotations"])
            for i, f in enumerate(doc["frames"])
        ]
        return Skeleton(joints), MotionSequence(fps=doc["fps"], frames=frames)

    return read_document(Path(path).read_bytes(), f"pose track {path}", POSE_TRACK_FORMAT, build)
