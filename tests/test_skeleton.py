import math

import numpy as np
import pytest

from vifuse import (
    DegenerateBoneError,
    MotionParams,
    SkeletonDefinition,
    TopologyError,
    UnboundJointError,
    angle_between,
    default_skeleton,
    forward_kinematics,
    global_rotations,
    igik,
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


def test_igik_rejects_bad_sensor_index():
    skel = chain_skeleton(3)
    pose = forward_kinematics(skel, MotionParams(np.zeros(3), (IDENTITY,) * 3))
    for bad in (0, 3, -1):
        with pytest.raises(UnboundJointError):
            igik(skel, pose, {bad: IDENTITY}, 0.1)


def test_igik_gate_triggers_above_threshold():
    skel = chain_skeleton(3)
    # visual pose: straight up; sensor says joint 1's bone points along +x
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    imu = quat_from_axis_angle([0, 0, 1], -math.pi / 2)  # +y bone -> +x
    out = forward_kinematics(skel, igik(skel, pose, {1: imu}, math.radians(15)))
    np.testing.assert_allclose(out[1], [100, 0, 0], atol=1e-12)
    # joint 2 had no sensor: its observed direction (+y) is kept
    np.testing.assert_allclose(out[2], [100, 100, 0], atol=1e-12)


def test_igik_gate_keeps_visual_below_threshold():
    skel = chain_skeleton(3)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    # sensor disagrees by ~5 degrees; gate at 15 degrees leaves the pose alone
    imu = quat_from_axis_angle([0, 0, 1], math.radians(5))
    out = forward_kinematics(skel, igik(skel, pose, {1: imu}, math.radians(15)))
    np.testing.assert_allclose(out, pose, atol=1e-9)


def test_igik_gate_boundary_is_strict():
    skel = chain_skeleton(2)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    imu = quat_from_axis_angle([0, 0, 1], math.radians(10))
    # gate fires only on strict excess: set theta_t to the exact float the
    # implementation will compare against, so equality keeps the visual pose
    theta = angle_between(quat_apply(imu, skel.bones[1]), pose[1] - pose[0])
    out = forward_kinematics(skel, igik(skel, pose, {1: imu}, theta))
    np.testing.assert_allclose(out, pose, atol=1e-9)
    # an infinitesimally smaller gate lets the sensor through
    out2 = forward_kinematics(skel, igik(skel, pose, {1: imu}, theta * (1 - 1e-12)))
    assert angle_between(out2[1], pose[1]) > math.radians(9.9)


def test_igik_replacement_shifts_descendants():
    # branch: root -> a -> b, with c also under a
    names = ("root", "a", "b", "c")
    parents = (-1, 0, 1, 1)
    tpose = np.array([[0, 0, 0], [0, 100, 0], [0, 200, 0], [100, 100, 0]], dtype=float)
    skel = SkeletonDefinition(names, parents, tpose)
    pose = tpose.copy()
    imu = quat_from_axis_angle([0, 0, 1], -math.pi / 2)
    out = forward_kinematics(skel, igik(skel, pose, {1: imu}, 0.1))
    np.testing.assert_allclose(out[1], [100, 0, 0], atol=1e-12)
    # locals are extracted against the replaced parent global, so siblings
    # keep their observed world directions but ride on the shifted parent
    np.testing.assert_allclose(out[2], out[1] + [0, 100, 0], atol=1e-12)
    np.testing.assert_allclose(out[3], out[1] + [100, 0, 0], atol=1e-12)


def test_refine_sequence_no_imu_is_fixpoint(rng):
    skel = chain_skeleton(4)
    poses = np.stack(
        [forward_kinematics(skel, random_params(skel, rng)) for _ in range(6)]
    )
    out = refine_sequence(skel, poses, None, 0.1)
    np.testing.assert_allclose(out, poses, atol=1e-9)
    again = refine_sequence(skel, out, None, 0.1)
    np.testing.assert_allclose(again, out, atol=1e-9)


def test_refine_sequence_per_frame_maps(rng):
    skel = chain_skeleton(3)
    pose = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 200.0, 0.0]])
    poses = np.stack([pose, pose])
    # one sensor rotation per frame: frame 0 agrees with the visual bone, frame
    # 1 points it along +x and so passes the gate
    imu = np.stack([IDENTITY, quat_from_axis_angle([0, 0, 1], -math.pi / 2)])
    out = refine_sequence(skel, poses, {1: imu}, math.radians(15))
    np.testing.assert_allclose(out[0], pose, atol=1e-9)
    np.testing.assert_allclose(out[1][1], [100, 0, 0], atol=1e-12)


def _sf2_frame_loop(skel, pose, imu_rotations, theta_t):
    """One frame of sf2 as a per-joint loop over single rotations: the
    reference the batched igik must reproduce."""
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


def test_refine_sequence_batch_equals_frame_loop(rng):
    skel = default_skeleton()
    t_n, theta_t = 12, math.radians(15)
    truth = [random_params(skel, rng) for _ in range(t_n)]
    poses = np.stack([forward_kinematics(skel, p) for p in truth])
    poses += rng.normal(0.0, 5.0, poses.shape)
    # frame 5: root at the origin and joint 1's bone exactly antiparallel to its T-pose bone
    poses[5] -= poses[5, 0]
    poses[5, 1] = -2.0 * skel.bones[1]
    sensors = (6, 7, 14, 15)
    # even frames: the sensor reads the true global rotation (gate stays shut);
    # odd frames: a random rotation (gate fires)
    imu = {
        j: np.stack([
            global_rotations(skel, truth[i])[j] if i % 2 == 0 else random_rotation(rng)
            for i in range(t_n)
        ])
        for j in sensors
    }
    fired = np.array([
        [angle_between(quat_apply(imu[j][i], skel.bones[j]), poses[i, j] - poses[i, skel.parents[j]]) > theta_t
         for j in sensors]
        for i in range(t_n)
    ])
    assert fired.any() and not fired.all()
    assert np.linalg.norm(np.cross(poses[5, 1], skel.bones[1])) == 0.0

    batch = refine_sequence(skel, poses, imu, theta_t)
    loop = np.stack([
        _sf2_frame_loop(skel, poses[i], {j: r[i] for j, r in imu.items()}, theta_t)
        for i in range(t_n)
    ])
    assert float(np.abs(batch - loop).max()) <= 1e-12
    np.testing.assert_allclose(
        batch[5, 1], skel.bones[1] * -1.0, atol=1e-9
    )


def test_refine_sequence_names_earliest_degenerate_frame():
    skel = chain_skeleton(4)
    poses = np.repeat(skel.tpose[None], 6, axis=0)
    poses[4, 1] = poses[4, 0]  # later frame, lower joint index
    poses[2, 3] = poses[2, 2]  # earlier frame, higher joint index
    with pytest.raises(DegenerateBoneError, match="frame 2: bone of joint 3") as info:
        refine_sequence(skel, poses, None, 0.1)
    assert (info.value.frame, info.value.joint) == (2, 3)
