"""Kinematic tree: forward kinematics, inverse kinematics, and sf2, which
swaps in the sensor-predicted bone where the visual bone deviates from it.

Joint j's rotation owns the bone from parent(j) to j. Positions are mm. The
tree is stored in topological order (parent index < joint index, joint 0 is
the single root), so one forward pass resolves every global rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import Observations, check_theta_t
from .rotmath import (IDENTITY, _norm3, angle_between, quat_apply, quat_inverse, quat_mul,
                      solve_rotation)

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
    """A sensor is bound to a joint, or with a parent, that the skeleton cannot bind."""


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
        with np.errstate(over="ignore"):  # an overflowing bone is refused below
            bones[1:] -= tpose[list(self.parents[1:])]
            bones[0] = 0.0
            lengths = np.linalg.norm(bones, axis=1)
        if np.any(lengths[1:] <= _BONE_EPS):
            bad = int(np.argmin(lengths[1:])) + 1
            raise TopologyError(f"T-pose bone of joint {bad} ({self.names[bad]}) has zero length")
        if not np.isfinite(lengths).all():
            bad = int(np.argmax(~np.isfinite(lengths)))
            raise TopologyError(
                f"T-pose bone of joint {bad} ({self.names[bad]}) has a non-finite length")
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
    return positions_from_globals(skel, global_rotations(skel, params), params.root_translation)


def positions_from_globals(skel: SkeletonDefinition, rotations: np.ndarray,
                           root_translation: np.ndarray) -> np.ndarray:
    """forward_kinematics from the global rotations (..., J, 4) that
    global_rotations returns and the root translation (..., 3)."""
    return _chain(skel, root_translation, quat_apply(rotations[..., 1:, :], skel.bones[1:]))


def _chain(skel: SkeletonDefinition, root_translation: np.ndarray,
           offsets: np.ndarray) -> np.ndarray:
    """Joint positions (..., J, 3) from the root's and each bone's offset
    (..., J - 1, 3) from its parent, summed in topological order."""
    pos = np.empty(offsets.shape[:-2] + (skel.joint_count, 3))
    pos[..., 0, :] = root_translation
    for j in range(1, skel.joint_count):
        pos[..., j, :] = pos[..., skel.parents[j], :] + offsets[..., j - 1, :]
    return pos


def _observed_bones(skel: SkeletonDefinition, pose: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The observed bones (..., J - 1, 3) of a float (J, 3) or (T, J, 3) pose
    and their lengths, once the pose's shape is checked."""
    j_n = skel.joint_count
    if pose.ndim not in (2, 3) or pose.shape[-2:] != (j_n, 3):
        raise TopologyError(f"pose shape {pose.shape} does not match {j_n}-joint skeleton")
    # take, not fancy indexing, which hands back a slow transposed layout
    b_obs = pose[..., 1:, :] - np.take(pose, skel.parents[1:], axis=-2)
    norms = _norm3(b_obs)
    bad = norms <= _BONE_EPS
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        j = int(at[-1]) + 1
        frame = int(at[0]) if pose.ndim == 3 else None
        raise DegenerateBoneError(j, skel.names[j], float(norms[at]), frame)
    return b_obs, norms


def inverse_kinematics(skel: SkeletonDefinition, pose: np.ndarray) -> MotionParams:
    """Plain visual inverse kinematics over one (J, 3) pose or a (T, J, 3)
    batch of frames.

    Each joint's global rotation is the minimal (zero-twist) rotation taking
    its T-pose bone to the observed bone, and its local rotation is taken
    against its parent's global. forward_kinematics on the result restores
    T-pose lengths along the observed directions. A near-zero observed bone
    raises DegenerateBoneError for the first bad (frame, joint) in
    frame-major order; its frame is None for a single pose.
    """
    pose = np.asarray(pose, dtype=float)
    b_obs, _ = _observed_bones(skel, pose)
    glob = np.empty(pose.shape[:-1] + (4,))
    glob[..., 0, :] = IDENTITY
    glob[..., 1:, :] = solve_rotation(skel.bones[1:], b_obs)
    local = np.empty_like(glob)
    local[..., 0, :] = IDENTITY
    local[..., 1:, :] = quat_mul(quat_inverse(glob[..., list(skel.parents[1:]), :]), glob[..., 1:, :])
    return MotionParams(pose[..., 0, :].copy(), local)


def refine_sequence(
    skel: SkeletonDefinition,
    poses: np.ndarray,
    obs: Observations,
    theta_t: float,
) -> np.ndarray:
    """sf2: IMU-gated bones summed into positions, over all frames of a
    (T, J, 3) array.

    The minimal rotation taking a T-pose bone to an observed one maps it to
    the T-pose length along the observed direction, so each bone is that
    unless its joint carries a sensor and the angle between the
    sensor-predicted bone, obs.bones (T, K, 3) at obs.sensor_joints, and the
    observed bone exceeds theta_t; then it is the sensor-predicted bone. These
    are the observations the window solve's bone term reads. The bones are
    summed from the observed root in topological order, so a replaced bone
    shifts every descendant. obs.check refuses streams and indices that do
    not fit the poses, and a sensor without bones raises
    MissingObservationError; a sensor whose parent is not the skeleton's
    (at the root, -1) raises UnboundJointError, so sf2 gates the bone term's
    bone, and a theta_t outside [0, pi], NaN or a bool ValueError. A
    degenerate observed bone raises DegenerateBoneError with its frame index.
    """
    check_theta_t(theta_t)
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3:
        raise TopologyError(f"pose sequence must be (T, J, 3), got {poses.shape}")
    obs.check(poses.shape)
    b_obs, norms = _observed_bones(skel, poses)
    js, ps, parents = obs.sensor_joints, obs.sensor_parents, np.take(skel.parents, obs.sensor_joints)
    wrong = np.flatnonzero(ps != parents)
    if wrong.size:
        k = wrong[0]
        raise UnboundJointError(f"sensor {k} is bound to joint {js[k]} with parent {ps[k]}; "
                                f"the skeleton gives joint {js[k]} parent {parents[k]}")
    offsets = b_obs * (skel.bone_lengths[1:] / norms)[..., None]
    if js.size:
        obs.require((False, False, True, False), len(poses))
        bones = js - 1
        fire = angle_between(obs.bones, np.take(b_obs, bones, axis=-2)) > theta_t
        offsets[:, bones] = np.where(fire[..., None], obs.bones, offsets[:, bones])
    return _chain(skel, poses[:, 0], offsets)
