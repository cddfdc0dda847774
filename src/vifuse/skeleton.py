"""Kinematic tree: forward kinematics, inverse kinematics, and the IMU-gated
variant that swaps in calibrated sensor rotations when the visual bone deviates.

Joint j's rotation owns the bone from parent(j) to j. Positions are mm. The
tree is stored in topological order (parent index < joint index, joint 0 is
the single root), so one forward pass resolves every global rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .rotmath import Rotation, angle_between, solve_rotation

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
    """Root position (mm) plus one local rotation per joint (root entry unused)."""

    root_translation: np.ndarray
    rotations: tuple[Rotation, ...]

    def __post_init__(self):
        t = np.asarray(self.root_translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"root translation must be a 3-vector, got {t.shape}")
        object.__setattr__(self, "root_translation", t)


def _check_params(skel: SkeletonDefinition, params: MotionParams) -> None:
    if len(params.rotations) != skel.joint_count:
        raise TopologyError(
            f"params carry {len(params.rotations)} rotations for a {skel.joint_count}-joint skeleton"
        )


def global_rotations(skel: SkeletonDefinition, params: MotionParams) -> tuple[Rotation, ...]:
    """Accumulated global rotation per joint (root = its own local rotation)."""
    _check_params(skel, params)
    out: list[Rotation] = [params.rotations[0]]
    for j in range(1, skel.joint_count):
        out.append(out[skel.parents[j]] @ params.rotations[j])
    return tuple(out)


def forward_kinematics(skel: SkeletonDefinition, params: MotionParams) -> np.ndarray:
    """Joint positions (J, 3) mm: X_j = X_parent + R_j_global (T-pose bone of j)."""
    _check_params(skel, params)
    j_n = skel.joint_count
    pos = np.empty((j_n, 3))
    pos[0] = params.root_translation
    globals_: list[Rotation] = [params.rotations[0]]
    bones = skel.bones
    for j in range(1, j_n):
        p = skel.parents[j]
        g = globals_[p] @ params.rotations[j]
        globals_.append(g)
        pos[j] = pos[p] + g.apply(bones[j])
    return pos


def igik(
    skel: SkeletonDefinition,
    pose: np.ndarray,
    imu_rotations: Mapping[int, Rotation],
    theta_t: float,
) -> MotionParams:
    """Per-frame inverse kinematics with an IMU override gate.

    Each joint's global rotation is first solved as the minimal (zero-twist)
    rotation taking its T-pose bone to the observed bone. If the joint carries
    a calibrated sensor rotation and the angle between the sensor-predicted
    bone and the observed bone exceeds theta_t, the sensor rotation replaces
    the visual one. Local rotations are extracted against the accumulated
    parent global, so replacements shift every descendant's position.

    Observed bone lengths are not trusted: running forward_kinematics on the
    result restores T-pose lengths while reproducing observed directions.
    """
    pose = np.asarray(pose, dtype=float)
    if pose.shape != (skel.joint_count, 3):
        raise TopologyError(f"pose shape {pose.shape} does not match {skel.joint_count}-joint skeleton")
    for j in imu_rotations:
        if not 1 <= j < skel.joint_count:
            raise UnboundJointError(f"sensor bound to invalid joint index {j}")
    bones_t = skel.bones
    parents = skel.parents
    globals_: list[Rotation] = [Rotation.identity()]
    locals_: list[Rotation] = [Rotation.identity()]
    for j in range(1, skel.joint_count):
        b_obs = pose[j] - pose[parents[j]]
        norm = float(np.linalg.norm(b_obs))
        if norm <= _BONE_EPS:
            raise DegenerateBoneError(j, skel.names[j], norm)
        g = solve_rotation(bones_t[j], b_obs)
        imu_rot = imu_rotations.get(j)
        if imu_rot is not None:
            b_imu = imu_rot.apply(bones_t[j])
            if angle_between(b_imu, b_obs) > theta_t:
                g = imu_rot
        locals_.append(globals_[parents[j]].inverse() @ g)
        globals_.append(g)
    return MotionParams(pose[0].copy(), tuple(locals_))


def inverse_kinematics(skel: SkeletonDefinition, pose: np.ndarray) -> MotionParams:
    """Plain visual inverse kinematics (igik with no sensors bound)."""
    return igik(skel, pose, {}, 0.0)


def refine_sequence(
    skel: SkeletonDefinition,
    poses: np.ndarray,
    imu_rotations: Sequence[Mapping[int, Rotation]] | None,
    theta_t: float,
) -> np.ndarray:
    """igik + forward_kinematics applied frame by frame over a (T, J, 3) array.

    A degenerate observed bone raises DegenerateBoneError carrying its frame index.
    """
    poses = np.asarray(poses, dtype=float)
    out = np.empty_like(poses)
    for i in range(poses.shape[0]):
        rots = imu_rotations[i] if imu_rotations is not None else {}
        try:
            params = igik(skel, poses[i], rots, theta_t)
        except DegenerateBoneError as e:
            raise DegenerateBoneError(e.joint, e.name, e.norm, frame=i) from None
        out[i] = forward_kinematics(skel, params)
    return out
