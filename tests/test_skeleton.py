import math
import re

import numpy as np
import pytest

from vifuse import (
    DegenerateBoneError,
    EnergyConfig,
    MissingObservationError,
    MotionParams,
    Observations,
    SkeletonDefinition,
    TopologyError,
    UnboundJointError,
    angle_between,
    default_skeleton,
    forward_kinematics,
    global_rotations,
    inverse_kinematics,
    refine_sequence,
    solve_rotation,
)

from vifuse.rotmath import IDENTITY, quat_apply, quat_from_axis_angle, quat_inverse, quat_matrix, quat_mul

from conftest import random_rotation


def chain_skeleton(n=3, step=100.0):
    names = tuple(f"j{i}" for i in range(n))
    parents = (-1,) + tuple(range(n - 1))
    tpose = np.zeros((n, 3))
    tpose[:, 1] = step * np.arange(n)
    return SkeletonDefinition(names, parents, tpose)


def random_params(skel, rng, span=500.0):
    rots = tuple(random_rotation(rng) for _ in range(skel.joint_count))
    return MotionParams(rng.uniform(-span, span, 3), rots)


def test_bones_and_lengths():
    skel = chain_skeleton(3)
    np.testing.assert_array_equal(skel.bones, [[0, 0, 0], [0, 100, 0], [0, 100, 0]])
    np.testing.assert_array_equal(skel.bone_lengths, [0, 100, 100])
    assert skel.index_of("j2") == 2
    with pytest.raises(UnboundJointError):
        skel.index_of("nope")


def test_topology_validation():
    with pytest.raises(TopologyError):
        SkeletonDefinition(("a", "b"), (-1, -1), np.zeros((2, 3)))
    with pytest.raises(TopologyError):
        SkeletonDefinition(("a", "b"), (0, -1), [[0, 0, 0], [1, 0, 0]])
    with pytest.raises(TopologyError):
        SkeletonDefinition(("a", "a"), (-1, 0), [[0, 0, 0], [1, 0, 0]])
    with pytest.raises(TopologyError):
        # child before parent
        SkeletonDefinition(("a", "b", "c"), (-1, 2, 0), np.eye(3))
    with pytest.raises(TopologyError):
        # zero-length T-pose bone
        SkeletonDefinition(("a", "b"), (-1, 0), np.zeros((2, 3)))
    with pytest.raises(TopologyError, match="joint 1 .* non-finite length"):
        # finite coordinates whose bone length overflows, refused without a warning
        SkeletonDefinition(("a", "b"), (-1, 0), [[-1e308, 0, 0], [1e308, 0, 0]])


def test_fk_two_bone_quarter_turns():
    skel = chain_skeleton(3)
    rx90 = quat_from_axis_angle([1, 0, 0], math.pi / 2)
    params = MotionParams(np.zeros(3), (IDENTITY, rx90, rx90))
    pos = forward_kinematics(skel, params)
    np.testing.assert_allclose(pos[0], [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pos[1], [0, 0, 100], atol=1e-12)
    np.testing.assert_allclose(pos[2], [0, -100, 100], atol=1e-12)


def test_fk_root_rotation_moves_whole_chain():
    skel = chain_skeleton(3)
    rz90 = quat_from_axis_angle([0, 0, 1], math.pi / 2)
    ident = IDENTITY
    params = MotionParams(np.array([10.0, 0.0, 0.0]), (rz90, ident, ident))
    pos = forward_kinematics(skel, params)
    np.testing.assert_allclose(pos[1], [10 - 100, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pos[2], [10 - 200, 0, 0], atol=1e-12)


def test_global_rotations_accumulate(rng):
    skel = chain_skeleton(4)
    params = random_params(skel, rng)
    globals_ = global_rotations(skel, params)
    expect = params.rotations[0]
    np.testing.assert_allclose(globals_[0], expect, atol=1e-14)
    for j in range(1, 4):
        expect = quat_mul(expect, params.rotations[j])
        np.testing.assert_allclose(quat_matrix(globals_[j]), quat_matrix(expect), atol=1e-12)


def test_ik_reproduces_positions(rng):
    skel = chain_skeleton(5)
    for _ in range(20):
        pose = forward_kinematics(skel, random_params(skel, rng))
        back = forward_kinematics(skel, inverse_kinematics(skel, pose))
        np.testing.assert_allclose(back, pose, atol=1e-9)


def test_ik_restores_bone_lengths(rng):
    skel = chain_skeleton(5)
    pose = forward_kinematics(skel, random_params(skel, rng))
    # corrupt lengths but keep directions
    stretched = pose.copy()
    for j in range(1, 5):
        stretched[j] = stretched[j - 1] + 1.7 * (pose[j] - pose[j - 1])
    out = forward_kinematics(skel, inverse_kinematics(skel, stretched))
    vec = np.diff(out, axis=0)
    np.testing.assert_allclose(np.linalg.norm(vec, axis=1), 100.0, rtol=1e-12)
    dirs = vec / np.linalg.norm(vec, axis=1, keepdims=True)
    want = np.diff(stretched, axis=0)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    np.testing.assert_allclose(dirs, want, atol=1e-12)


def test_ik_rejects_degenerate_bone():
    skel = chain_skeleton(3)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 100.0, 0.0]])
    with pytest.raises(DegenerateBoneError):
        inverse_kinematics(skel, pose)


def test_ik_shape_check():
    skel = chain_skeleton(3)
    with pytest.raises(TopologyError):
        inverse_kinematics(skel, np.zeros((2, 3)))


def test_ik_batch_equals_single_poses(rng):
    skel = chain_skeleton(5)
    poses = np.stack([forward_kinematics(skel, random_params(skel, rng)) for _ in range(4)])
    poses += rng.normal(0.0, 5.0, poses.shape)
    batch = inverse_kinematics(skel, poses)
    single = [inverse_kinematics(skel, pose) for pose in poses]
    assert batch.rotations.tobytes() == np.stack([p.rotations for p in single]).tobytes()
    assert batch.root_translation.tobytes() == np.stack(
        [p.root_translation for p in single]).tobytes()
    poses[2, 3] = poses[2, 2]
    with pytest.raises(DegenerateBoneError, match="frame 2: bone of joint 3") as info:
        inverse_kinematics(skel, poses)
    assert (info.value.frame, info.value.joint) == (2, 3)


def sensor_obs(skel, imu_rotations, frames=1):
    """Observations of the bones that calibrated sensor rotations predict,
    as calibrate_stream predicts them: imu_rotations maps a joint to its
    (frames, 4) rotations, or to one (4,) rotation held for every frame."""
    joints = list(imu_rotations)
    rotations = np.stack(
        [np.broadcast_to(imu_rotations[j], (frames, 4)) for j in joints], axis=1)
    return Observations(bones=quat_apply(rotations, skel.bones[joints]), sensor_joints=joints,
                        sensor_parents=[skel.parents[j] for j in joints])


def _refine_one(skel, pose, imu_rotations, theta_t):
    """refine_sequence on a (1, J, 3) batch of `pose`, as one (J, 3) pose."""
    return refine_sequence(skel, pose[None], sensor_obs(skel, imu_rotations), theta_t)[0]


def test_refine_sequence_rejects_bad_sensor_index():
    skel = chain_skeleton(3)
    pose = skel.tpose.copy()

    def bound(joints, parents):
        return Observations(bones=np.tile(skel.bones[1], (1, len(joints), 1)),
                            sensor_joints=joints, sensor_parents=parents)

    # each parent must be the skeleton's, so sf2 gates the bone term's bone:
    # the root's is -1, so it has no bone to swap
    for joints, parents, want in (([0], [1], -1), ([1, 2], [0, 0], 1), ([2], [0], 1)):
        j, p = joints[-1], parents[-1]
        with pytest.raises(UnboundJointError, match=f"^'sensor {len(joints) - 1} is bound to joint "
                           f"{j} with parent {p}; the skeleton gives joint {j} parent {want}'$"):
            refine_sequence(skel, pose[None], bound(joints, parents), 0.1)
    # a joint bound twice or to itself, the joint range and the index rule are
    # the Observations' own
    with pytest.raises(ValueError, match="^sensor 2 is bound to joint 1 with parent 0; "
                       "joint 1 is bound to sensor 0 too$"):
        bound([1, 2, 1], [0, 1, 0])
    with pytest.raises(ValueError, match="^sensor 0 is bound to joint 2 with parent 2; "
                       "a joint is not its own parent$"):
        refine_sequence(skel, pose[None], bound([2], [2]), 0.1)
    with pytest.raises(ValueError, match="^sensor 0 is bound to joint 3 with parent 2, the "
                       "positions have 3 joints$"):
        refine_sequence(skel, pose[None], bound([3], [2]), 0.1)
    for bad in (True, np.True_, 1.0, 6.5, -1):
        with pytest.raises(ValueError, match=f"^sensor 0 is bound to joint {bad} with parent 0"):
            bound([bad], [0])
    imu = quat_from_axis_angle([0, 0, 1], -math.pi / 2)
    want = _refine_one(skel, pose, {1: imu}, 0.1)
    assert _refine_one(skel, pose, {np.int64(1): imu}, 0.1).tobytes() == want.tobytes()


@pytest.mark.parametrize("theta_t", [math.nan, True, 4.0, -1.0])
def test_refine_sequence_refuses_a_gate_angle_that_energy_config_refuses(theta_t):
    skel = chain_skeleton(3)
    with pytest.raises(ValueError, match=re.escape(f"theta_t must lie in [0, pi], got {theta_t}")):
        EnergyConfig(theta_t=theta_t)
    with pytest.raises(ValueError, match=re.escape(f"theta_t must lie in [0, pi], got {theta_t}")):
        _refine_one(skel, skel.tpose.copy(), {1: IDENTITY}, theta_t)


def test_refine_sequence_gate_triggers_above_threshold():
    skel = chain_skeleton(3)
    # visual pose: straight up; sensor says joint 1's bone points along +x
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    imu = quat_from_axis_angle([0, 0, 1], -math.pi / 2)  # +y bone -> +x
    out = _refine_one(skel, pose, {1: imu}, math.radians(15))
    np.testing.assert_allclose(out[1], [100, 0, 0], atol=1e-12)
    # joint 2 had no sensor: its observed direction (+y) is kept
    np.testing.assert_allclose(out[2], [100, 100, 0], atol=1e-12)


def test_refine_sequence_gate_keeps_visual_below_threshold():
    skel = chain_skeleton(3)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    # sensor disagrees by ~5 degrees; gate at 15 degrees leaves the pose alone
    imu = quat_from_axis_angle([0, 0, 1], math.radians(5))
    out = _refine_one(skel, pose, {1: imu}, math.radians(15))
    np.testing.assert_allclose(out, pose, atol=1e-9)


def test_refine_sequence_gate_boundary_is_strict():
    skel = chain_skeleton(2)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    imu = quat_from_axis_angle([0, 0, 1], math.radians(10))
    # gate fires only on strict excess: set theta_t to the exact float the
    # implementation will compare against, so equality keeps the visual pose
    theta = angle_between(quat_apply(imu, skel.bones[1]), pose[1] - pose[0])
    out = _refine_one(skel, pose, {1: imu}, theta)
    np.testing.assert_allclose(out, pose, atol=1e-9)
    # an infinitesimally smaller gate lets the sensor through
    out2 = _refine_one(skel, pose, {1: imu}, theta * (1 - 1e-12))
    assert angle_between(out2[1], pose[1]) > math.radians(9.9)


def test_refine_sequence_replacement_shifts_descendants():
    # branch: root -> a -> b, with c also under a
    names = ("root", "a", "b", "c")
    parents = (-1, 0, 1, 1)
    tpose = np.array([[0, 0, 0], [0, 100, 0], [0, 200, 0], [100, 100, 0]], dtype=float)
    skel = SkeletonDefinition(names, parents, tpose)
    pose = tpose.copy()
    imu = quat_from_axis_angle([0, 0, 1], -math.pi / 2)
    out = _refine_one(skel, pose, {1: imu}, 0.1)
    np.testing.assert_allclose(out[1], [100, 0, 0], atol=1e-12)
    # the children keep their observed world directions but ride on the
    # replaced bone
    np.testing.assert_allclose(out[2], out[1] + [0, 100, 0], atol=1e-12)
    np.testing.assert_allclose(out[3], out[1] + [100, 0, 0], atol=1e-12)


def test_refine_sequence_no_imu_is_fixpoint(rng):
    skel = chain_skeleton(4)
    poses = np.stack(
        [forward_kinematics(skel, random_params(skel, rng)) for _ in range(6)]
    )
    out = refine_sequence(skel, poses, Observations(), 0.1)
    np.testing.assert_allclose(out, poses, atol=1e-9)
    again = refine_sequence(skel, out, Observations(), 0.1)
    np.testing.assert_allclose(again, out, atol=1e-9)


def test_refine_sequence_refuses_bones_of_another_frame_count():
    skel = chain_skeleton(3)
    poses = np.repeat(skel.tpose[None], 5, axis=0)
    for frames in (4, 6):
        obs = sensor_obs(skel, {1: IDENTITY, 2: IDENTITY}, frames)
        with pytest.raises(ValueError, match=f"^bones has {frames} frames, the positions have 5$"):
            refine_sequence(skel, poses, obs, 0.1)
    with pytest.raises(MissingObservationError, match="bone term requires"):
        refine_sequence(skel, poses, Observations(sensor_joints=[1], sensor_parents=[0]), 0.1)


def test_refine_sequence_refuses_an_array_that_is_not_t_j_3():
    skel = chain_skeleton(3)
    for shape in ((3, 3), (2, 2, 3, 3)):
        with pytest.raises(TopologyError, match=r"^pose sequence must be \(T, J, 3\), got "):
            refine_sequence(skel, np.zeros(shape), Observations(), 0.1)
    for shape in ((2, 3, 2), (2, 4, 3)):
        with pytest.raises(TopologyError, match="does not match 3-joint skeleton"):
            refine_sequence(skel, np.zeros(shape), Observations(), 0.1)


def test_refine_sequence_per_frame_maps(rng):
    skel = chain_skeleton(3)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    poses = np.stack([pose, pose])
    # one sensor rotation per frame: frame 0 agrees with the visual bone, frame
    # 1 points it along +x and so passes the gate
    imu = np.stack([IDENTITY, quat_from_axis_angle([0, 0, 1], -math.pi / 2)])
    out = refine_sequence(skel, poses, sensor_obs(skel, {1: imu}, 2), math.radians(15))
    np.testing.assert_allclose(out[0], pose, atol=1e-9)
    np.testing.assert_allclose(out[1][1], [100, 0, 0], atol=1e-12)


def _sf2_frame_loop(skel, pose, imu_rotations, theta_t):
    """One frame of sf2 as a per-joint loop over single rotations: the
    reference the batched refine_sequence must reproduce."""
    globals_ = [IDENTITY]
    for j in range(1, skel.joint_count):
        b_obs = pose[j] - pose[skel.parents[j]]
        g = solve_rotation(skel.bones[j], b_obs)
        imu_rot = imu_rotations.get(j)
        if imu_rot is not None and angle_between(quat_apply(imu_rot, skel.bones[j]), b_obs) > theta_t:
            g = imu_rot
        globals_.append(g)
    locals_ = [IDENTITY] + [
        quat_mul(quat_inverse(globals_[skel.parents[j]]), globals_[j]) for j in range(1, skel.joint_count)
    ]
    return forward_kinematics(skel, MotionParams(pose[0], tuple(locals_)))


SF2_SENSORS = (6, 7, 14, 15)


def _gated_frames(rng):
    """Twelve noisy frames of the default skeleton with sensors on
    SF2_SENSORS, whose gate is shut on some (frame, sensor) and fires on the
    others, and the mask of where it fires. In frame 5 joint 1's bone is
    exactly antiparallel to its T-pose bone."""
    skel = default_skeleton()
    t_n, theta_t = 12, math.radians(15)
    truth = [random_params(skel, rng) for _ in range(t_n)]
    poses = np.stack([forward_kinematics(skel, p) for p in truth])
    poses += rng.normal(0.0, 5.0, poses.shape)
    # frame 5: root at the origin and joint 1's bone exactly antiparallel to its T-pose bone
    poses[5] -= poses[5, 0]
    poses[5, 1] = -2.0 * skel.bones[1]
    # even frames: the sensor reads the true global rotation (gate stays shut);
    # odd frames: a random rotation (gate fires)
    imu = {
        j: np.stack([
            global_rotations(skel, truth[i])[j] if i % 2 == 0 else random_rotation(rng)
            for i in range(t_n)
        ])
        for j in SF2_SENSORS
    }
    fired = np.array([
        [angle_between(quat_apply(imu[j][i], skel.bones[j]), poses[i, j] - poses[i, skel.parents[j]]) > theta_t
         for j in SF2_SENSORS]
        for i in range(t_n)
    ])
    assert fired.any() and not fired.all()
    assert np.linalg.norm(np.cross(poses[5, 1], skel.bones[1])) == 0.0
    return skel, poses, imu, theta_t, fired


def test_refine_sequence_batch_equals_frame_loop(rng):
    skel, poses, imu, theta_t, _ = _gated_frames(rng)
    batch = refine_sequence(skel, poses, sensor_obs(skel, imu, len(poses)), theta_t)
    loop = np.stack([
        _sf2_frame_loop(skel, poses[i], {j: r[i] for j, r in imu.items()}, theta_t)
        for i in range(len(poses))
    ])
    assert float(np.abs(batch - loop).max()) <= 1e-12
    np.testing.assert_allclose(
        batch[5, 1], skel.bones[1] * -1.0, atol=1e-9
    )


def test_refine_sequence_bones_are_tpose_lengths_along_observed_or_sensor_bones(rng):
    skel, poses, imu, theta_t, fired = _gated_frames(rng)
    out = refine_sequence(skel, poses, sensor_obs(skel, imu, len(poses)), theta_t)
    parents = list(skel.parents[1:])
    bones = out[:, 1:] - out[:, parents]
    observed = poses[:, 1:] - poses[:, parents]
    gated = np.zeros(bones.shape[:2], dtype=bool)
    for k, j in enumerate(SF2_SENSORS):
        gated[:, j - 1] = fired[:, k]
        want = quat_apply(imu[j][fired[:, k]], skel.bones[j])
        assert np.abs(bones[fired[:, k], j - 1] - want).max() <= 1e-9
    # every bone the gate leaves is its T-pose length along the observed direction
    want = observed / np.linalg.norm(observed, axis=-1, keepdims=True) * skel.bone_lengths[1:, None]
    assert np.abs(bones[~gated] - want[~gated]).max() <= 1e-9
    np.testing.assert_array_equal(out[:, 0], poses[:, 0])


def test_refine_sequence_names_earliest_degenerate_frame():
    skel = chain_skeleton(4)
    poses = np.repeat(skel.tpose[None], 6, axis=0)
    poses[4, 1] = poses[4, 0]  # later frame, lower joint index
    poses[2, 3] = poses[2, 2] + [3e-10, -4e-10, 1e-10]  # earlier frame, higher joint index
    with pytest.raises(DegenerateBoneError, match="frame 2: bone of joint 3") as info:
        refine_sequence(skel, poses, Observations(), 0.1)
    assert (info.value.frame, info.value.joint) == (2, 3)
    assert info.value.norm == np.linalg.norm(poses[2, 3] - poses[2, 2])
