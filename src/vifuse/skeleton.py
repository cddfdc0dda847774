"""Kinematic tree: forward kinematics, inverse kinematics, and the IMU-gated
variant that swaps in calibrated sensor rotations when the visual bone deviates.

Joint j's rotation owns the bone from parent(j) to j. Positions are mm. The
tree is stored in topological order (parent index < joint index, joint 0 is
the single root), so one forward pass resolves every global rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .rotmath import IDENTITY, angle_between, quat_apply, quat_inverse, quat_mul, solve_rotation

_BONE_EPS = 1e-9


class TopologyError(ValueError):
    """The joint list does not form a rooted tree in topological order."""


class DegenerateBoneError(ValueError):
    """An observed bone has near-zero length, so its direction is undefined."""

    def __init__(self, joint: int, name: str, norm: float, frame: int | None = None):
        where = "" if frame is None else f"frame {frame}: "
        super().__init__(f"{where}bone of joint {joint} ({name}) has near-zero length {norm:.3e} mm")
        self.joint = joint
        self.name = name
        self.norm = norm
        self.frame = frame


class UnboundJointError(KeyError):
    """A sensor rotation was supplied for a joint the skeleton cannot bind."""


@dataclass(frozen=True)
class SkeletonDefinition:
    """Joint names, parent indices (-1 for the root), and T-pose positions (mm)."""

    names: tuple[str, ...]
    parents: tuple[int, ...]
    tpose: np.ndarray

    def __post_init__(self):
        tpose = np.asarray(self.tpose, dtype=float)
        object.__setattr__(self, "tpose", tpose)
        j = len(self.names)
        if len(self.parents) != j or tpose.shape != (j, 3):
            raise TopologyError("names, parents and tpose disagree on joint count")
        if j == 0:
            raise TopologyError("skeleton has no joints")
        if len(set(self.names)) != j:
            raise TopologyError("joint names are not unique")
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if roots != [0]:
            raise TopologyError(f"expected exactly one root at index 0, found roots {roots}")
        for i, p in enumerate(self.parents):
            if i > 0 and not 0 <= p < i:
                raise TopologyError(f"joint {i} has parent {p}; topological order requires 0 <= parent < joint")
        bones = tpose.copy()
        bones[1:] -= tpose[list(self.parents[1:])]
        bones[0] = 0.0
        lengths = np.linalg.norm(bones, axis=1)
        if np.any(lengths[1:] <= _BONE_EPS):
            bad = int(np.argmin(lengths[1:])) + 1
            raise TopologyError(f"T-pose bone of joint {bad} ({self.names[bad]}) has zero length")
        bones.setflags(write=False)
        tpose.setflags(write=False)
        object.__setattr__(self, "_bones", bones)
        object.__setattr__(self, "_lengths", lengths)

    @property
    def joint_count(self) -> int:
        return len(self.names)

    @property
    def bones(self) -> np.ndarray:
        """T-pose bone vectors, row j = tpose[j] - tpose[parent(j)] (row 0 zero)."""
        return self._bones

    @property
    def bone_lengths(self) -> np.ndarray:
        return self._lengths

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnboundJointError(f"skeleton has no joint named {name!r}") from None


@dataclass(frozen=True)
class MotionParams:
    """Root position (mm) plus one local rotation per joint, for one frame or,
    on leading batch axes, for many.

    root_translation is (..., 3) and rotations (..., J, 4) unit quaternions,
    stored as a read-only view. Indexing and len() run over the frame axis.
    """

    root_translation: np.ndarray
    rotations: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.root_translation, dtype=float)
        if t.shape[-1:] != (3,):
            raise ValueError(f"root translation must be a 3-vector, got {t.shape}")
        q = np.asarray(self.rotations, dtype=float)
        if q.ndim < 2 or q.shape[-1] != 4 or q.shape[:-2] != t.shape[:-1]:
            raise ValueError(
                f"rotations of shape {q.shape} do not match root translations {t.shape}")
        q = q.view()
        q.setflags(write=False)
        object.__setattr__(self, "root_translation", t)
        object.__setattr__(self, "rotations", q)

    def __len__(self) -> int:
        if self.root_translation.ndim == 1:
            raise TypeError("single-frame params have no length")
        return self.root_translation.shape[0]

    def __getitem__(self, frame) -> "MotionParams":
        if self.root_translation.ndim == 1:
            raise TypeError("single-frame params cannot be indexed")
        return MotionParams(self.root_translation[frame], self.rotations[frame])


def _check_params(skel: SkeletonDefinition, params: MotionParams) -> None:
    if params.rotations.shape[-2] != skel.joint_count:
        raise TopologyError(
            f"params carry {params.rotations.shape[-2]} rotations for a {skel.joint_count}-joint skeleton"
        )


def global_rotations(skel: SkeletonDefinition, params: MotionParams) -> np.ndarray:
    """Accumulated global rotation per joint (root = its own local rotation),
    as (..., J, 4) quaternions of the params' batch shape."""
    _check_params(skel, params)
    local = params.rotations
    out = np.empty_like(local)
    out[..., 0, :] = local[..., 0, :]
    for j in range(1, skel.joint_count):
        out[..., j, :] = quat_mul(out[..., skel.parents[j], :], local[..., j, :])
    return out


def forward_kinematics(skel: SkeletonDefinition, params: MotionParams) -> np.ndarray:
    """Joint positions (..., J, 3) mm: X_j = X_parent + R_j_global (T-pose bone of j)."""
    offsets = quat_apply(global_rotations(skel, params), skel.bones)
    pos = np.empty_like(offsets)
    pos[..., 0, :] = params.root_translation
    for j in range(1, skel.joint_count):
        pos[..., j, :] = pos[..., skel.parents[j], :] + offsets[..., j, :]
    return pos


def igik(
    skel: SkeletonDefinition,
    pose: np.ndarray,
    imu_rotations: Mapping[int, np.ndarray],
    theta_t: float,
) -> MotionParams:
    """Inverse kinematics with an IMU override gate, over one (J, 3) pose or a
    (T, J, 3) batch of frames.

    Each joint's global rotation is first solved as the minimal (zero-twist)
    rotation taking its T-pose bone to the observed bone. If the joint carries
    a calibrated sensor rotation and the angle between the sensor-predicted
    bone and the observed bone exceeds theta_t, the sensor rotation replaces
    the visual one. Sensor rotations are (..., 4) quaternions that broadcast
    against the frame axes: one (4,) rotation, or (T, 4) with one per frame.
    Local rotations are extracted against the parent's global, so
    replacements shift every descendant's position.

    Observed bone lengths are not trusted: running forward_kinematics on the
    result restores T-pose lengths while reproducing observed directions.
    A near-zero observed bone raises DegenerateBoneError for the first bad
    (frame, joint) in frame-major order; its frame is None for a single pose.
    """
    pose = np.asarray(pose, dtype=float)
    j_n = skel.joint_count
    if pose.ndim not in (2, 3) or pose.shape[-2:] != (j_n, 3):
        raise TopologyError(f"pose shape {pose.shape} does not match {j_n}-joint skeleton")
    for j in imu_rotations:
        if not 1 <= j < j_n:
            raise UnboundJointError(f"sensor bound to invalid joint index {j}")
    parents = np.array(skel.parents[1:])
    b_obs = pose[..., 1:, :] - pose[..., parents, :]
    bad = np.linalg.norm(b_obs, axis=-1) <= _BONE_EPS
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        j = int(at[-1]) + 1
        frame = int(at[0]) if pose.ndim == 3 else None
        raise DegenerateBoneError(j, skel.names[j], float(np.linalg.norm(b_obs[at])), frame)
    glob = np.empty(pose.shape[:-1] + (4,))
    glob[..., 0, :] = IDENTITY
    glob[..., 1:, :] = solve_rotation(skel.bones[1:], b_obs)
    for j, imu_rot in imu_rotations.items():
        fire = angle_between(quat_apply(imu_rot, skel.bones[j]), b_obs[..., j - 1, :]) > theta_t
        glob[..., j, :] = np.where(np.asarray(fire)[..., None], imu_rot, glob[..., j, :])
    del b_obs  # frame batches are large: drop each temporary once it is used
    relative = quat_mul(quat_inverse(glob[..., parents, :]), glob[..., 1:, :])
    local = np.empty_like(glob)
    local[..., 0, :] = IDENTITY
    local[..., 1:, :] = relative
    return MotionParams(pose[..., 0, :].copy(), local)


def inverse_kinematics(skel: SkeletonDefinition, pose: np.ndarray) -> MotionParams:
    """Plain visual inverse kinematics (igik with no sensors bound)."""
    return igik(skel, pose, {}, 0.0)


def refine_sequence(
    skel: SkeletonDefinition,
    poses: np.ndarray,
    imu_rotations: Mapping[int, np.ndarray] | None,
    theta_t: float,
) -> np.ndarray:
    """sf2: igik + forward_kinematics over all frames of a (T, J, 3) array.

    imu_rotations maps a joint index to its calibrated sensor rotations,
    (T, 4) quaternions. A degenerate observed bone raises
    DegenerateBoneError carrying its frame index.
    """
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3:
        raise TopologyError(f"pose sequence must be (T, J, 3), got {poses.shape}")
    return forward_kinematics(skel, igik(skel, poses, imu_rotations or {}, theta_t))
