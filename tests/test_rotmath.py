import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vifuse import ZeroVectorError, angle_between, solve_rotation
from vifuse.rotmath import (
    IDENTITY,
    quat_apply,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_inverse,
    quat_matrix,
    quat_mul,
    quat_normalize,
)

from conftest import random_rotation, rot_angle, rot_angle_between, rot_distance

finite_quat = st.lists(
    st.floats(min_value=-10, max_value=10), min_size=4, max_size=4
).filter(lambda q: sum(v * v for v in q) > 1e-4)

unit_vec = st.lists(
    st.floats(min_value=-5, max_value=5), min_size=3, max_size=3
).filter(lambda v: sum(x * x for x in v) > 1e-4)


def test_identity_fixes_vectors(rng):
    v = rng.standard_normal((7, 3))
    assert np.array_equal(quat_apply(IDENTITY, v), v)


def test_constructor_normalizes_and_canonicalizes():
    r = quat_normalize([-2.0, 0.0, 0.0, 2.0])
    np.testing.assert_allclose(r, [math.sqrt(0.5), 0, 0, -math.sqrt(0.5)], atol=1e-15)
    assert r[0] >= 0.0


def test_canonical_tie_break_at_zero_w():
    r = quat_normalize([0.0, -1.0, 0.0, 0.0])
    np.testing.assert_array_equal(r, [0.0, 1.0, 0.0, 0.0])


def test_zero_quaternion_rejected():
    with pytest.raises(ZeroVectorError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])


def test_huge_quaternion_normalizes_without_overflow():
    # 1e300 squared overflows; each row keeps its direction, and a row of
    # ordinary size in the same batch keeps its bits.
    q = [[1e300, 0.0, -1e300, 0.0], [1.7e308, 1.7e308, 1.7e308, 1.7e308], [0.3, 0.4, 0.0, 1.2]]
    r = quat_normalize(q)
    np.testing.assert_allclose(r[0], [math.sqrt(0.5), 0.0, -math.sqrt(0.5), 0.0], atol=1e-15)
    np.testing.assert_allclose(r[1], [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    np.testing.assert_array_equal(r[2], quat_normalize(q[2]))


def test_axis_angle_quarter_turn_z():
    r = quat_from_axis_angle([0, 0, 1], math.pi / 2)
    np.testing.assert_allclose(quat_apply(r, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    assert rot_angle(r) == pytest.approx(math.pi / 2, abs=1e-12)


def test_apply_matches_matrix(rng):
    for _ in range(20):
        r = random_rotation(rng)
        v = rng.standard_normal((5, 3))
        np.testing.assert_allclose(quat_apply(r, v), v @ quat_matrix(r).T, atol=1e-12)


def test_compose_matches_matrix_product(rng):
    a = random_rotation(rng)
    b = random_rotation(rng)
    np.testing.assert_allclose(quat_matrix(quat_mul(a, b)), quat_matrix(a) @ quat_matrix(b), atol=1e-12)


def test_inverse_round_trip(rng):
    for _ in range(20):
        r = random_rotation(rng)
        assert rot_distance(quat_mul(r, quat_inverse(r)), IDENTITY) < 1e-14
        v = rng.standard_normal(3)
        np.testing.assert_allclose(quat_apply(quat_inverse(r), quat_apply(r, v)), v, atol=1e-12)


def test_from_matrix_round_trip(rng):
    for _ in range(50):
        r = random_rotation(rng)
        assert rot_distance(quat_from_matrix(quat_matrix(r)), r) < 1e-13


def test_from_matrix_near_pi_branches():
    axes = ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, -0.48, 0.64])
    singles = []
    for axis in axes:
        r = quat_from_axis_angle(axis, math.pi - 1e-9)
        singles.append(quat_from_matrix(quat_matrix(r)))
        assert rot_distance(singles[-1], r) < 1e-7
    # the same rotations as one batch: each batched matrix converts back alike
    q = quat_from_axis_angle(axes, math.pi - 1e-9)
    back = np.array([quat_from_matrix(m) for m in quat_matrix(q)])
    np.testing.assert_array_equal(back, singles)
    for got, want in zip(back, q):
        assert rot_distance(got, want) < 1e-7


def test_angle_to_symmetric(rng):
    a = random_rotation(rng)
    b = random_rotation(rng)
    assert rot_angle_between(a, b) == pytest.approx(rot_angle_between(b, a), abs=1e-15)
    assert rot_angle_between(a, a) == pytest.approx(0.0, abs=1e-7)


def test_angle_between_basic():
    assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)
    assert angle_between([1, 0, 0], [-2, 0, 0]) == pytest.approx(math.pi)
    assert angle_between([3, 0, 0], [7, 0, 0]) == 0.0
    with pytest.raises(ZeroVectorError):
        angle_between([0, 0, 0], [1, 0, 0])


def test_solve_rotation_quarter_turn():
    r = solve_rotation([1, 0, 0], [0, 1, 0])
    np.testing.assert_allclose(
        r, [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)], atol=1e-15
    )


def test_solve_rotation_identity_on_parallel():
    r = solve_rotation([2, 1, 0], [4, 2, 0])
    assert rot_distance(r, IDENTITY) == 0.0


def test_solve_rotation_antiparallel_x():
    r = solve_rotation([1, 0, 0], [-1, 0, 0])
    np.testing.assert_allclose(r, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(quat_apply(r, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)


def test_solve_rotation_antiparallel_general():
    u = np.array([0.6, 0.8, 0.0])
    r = solve_rotation(u, -u)
    np.testing.assert_allclose(quat_apply(r, u), -u, atol=1e-12)
    assert rot_angle(r) == pytest.approx(math.pi, abs=1e-12)


def test_solve_rotation_rejects_zero():
    with pytest.raises(ZeroVectorError):
        solve_rotation([0, 0, 0], [1, 0, 0])
    with pytest.raises(ZeroVectorError):
        solve_rotation([1, 0, 0], [0, 0, 0])


@settings(max_examples=200, deadline=None)
@given(finite_quat, finite_quat)
def test_compose_apply_consistent(qa, qb):
    a = quat_normalize(qa)
    b = quat_normalize(qb)
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(quat_apply(quat_mul(a, b), v), quat_apply(a, quat_apply(b, v)), atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(finite_quat)
def test_quaternion_stays_unit_and_canonical(q):
    r = quat_normalize(q)
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
    assert r[0] >= 0.0


def _well_conditioned(u, v):
    """Exclude the near-antiparallel sliver where the axis is ill-defined."""
    un = np.asarray(u, dtype=float)
    vn = np.asarray(v, dtype=float)
    un /= np.linalg.norm(un)
    vn /= np.linalg.norm(vn)
    s = float(np.linalg.norm(np.cross(un, vn)))
    return s == 0.0 or s > 1e-6


@settings(max_examples=200, deadline=None)
@given(unit_vec, unit_vec)
def test_solve_rotation_maps_direction(u, v):
    assume(_well_conditioned(u, v))
    r = solve_rotation(u, v)
    got = quat_apply(r, u)
    got /= np.linalg.norm(got)
    want = np.asarray(v, dtype=float)
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(got, want, atol=1e-8)


@settings(max_examples=200, deadline=None)
@given(unit_vec, unit_vec)
def test_solve_rotation_angle_is_minimal(u, v):
    r = solve_rotation(u, v)
    assert rot_angle(r) == pytest.approx(angle_between(u, v), abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(unit_vec, unit_vec)
def test_solve_rotation_has_zero_twist(u, v):
    """The axis never has a component along the source vector."""
    assume(_well_conditioned(u, v))
    r = solve_rotation(u, v)
    axis = r[1:]
    un = np.asarray(u, dtype=float)
    un /= np.linalg.norm(un)
    assert abs(float(np.dot(axis, un))) < 1e-8


# -- batched (..., 4) functions against independent references ---------------

def _ref_matrix(q):
    """Rodrigues matrices of (n, 4) quaternions via their axis and angle,
    normalizing here rather than through the code under test."""
    out = []
    for w, x, y, z in q / np.linalg.norm(q, axis=1, keepdims=True):
        v = np.array([x, y, z])
        s = np.linalg.norm(v)
        if s == 0.0:
            out.append(np.eye(3))
            continue
        theta = 2.0 * math.atan2(s, w)
        k = v / s
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        out.append(np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * kx @ kx)
    return np.array(out)


def _quat_rows(n):
    return hnp.arrays(np.float64, (n, 4), elements=st.floats(-10, 10)).filter(
        lambda q: bool(np.all(np.sum(q * q, axis=1) > 1e-4)))


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    _quat_rows(n), hnp.arrays(np.float64, (n, 3), elements=st.floats(-5, 5)))))
def test_quat_apply_matches_matrix(qv):
    q, v = qv
    want = np.einsum("nij,nj->ni", _ref_matrix(q), v)
    np.testing.assert_allclose(quat_apply(_unit_rows(q), v), want, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_quat_rows(n), _quat_rows(n))))
def test_quat_mul_matches_matrix_product(ab):
    a, b = ab
    got = quat_mul(_unit_rows(a), _unit_rows(b))
    np.testing.assert_allclose(_ref_matrix(got), _ref_matrix(a) @ _ref_matrix(b), atol=1e-12)
    assert np.all(got[:, 0] >= 0.0)


nonzero_vec = st.tuples(*[st.floats(-5, 5)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-4)
positive = st.floats(0.01, 5)


@st.composite
def direction_pair(draw):
    """(src, dst): free, antiparallel, or with src along +x or -x."""
    along_x = draw(st.booleans())
    if along_x:
        src = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(positive), 0.0, 0.0])
    else:
        src = np.array(draw(nonzero_vec))
    if draw(st.booleans()):
        dst = -draw(positive) * src
    else:
        dst = np.array(draw(nonzero_vec))
    return src, dst


@settings(max_examples=300, deadline=None)
@given(st.lists(direction_pair(), min_size=1, max_size=6))
def test_solve_rotation_batch_maps_src_onto_dst(pairs):
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    u = _unit_rows(src)
    v = _unit_rows(dst)
    # skip the near-antiparallel sliver, where the cross-product axis is ill-defined
    s = np.linalg.norm(np.cross(u, v), axis=1)
    keep = (s <= 1e-12) | (s > 1e-6)
    assume(keep.any())
    q = solve_rotation(src[keep], dst[keep])
    np.testing.assert_allclose(np.einsum("nij,nj->ni", _ref_matrix(q), u[keep]), v[keep], atol=1e-9)
    # zero twist: the rotation axis is orthogonal to src
    np.testing.assert_allclose(np.sum(q[:, 1:] * u[keep], axis=1), 0.0, atol=1e-9)
    assert np.all(q[:, 0] >= 0.0)


@settings(max_examples=200, deadline=None)
@given(nonzero_vec)
def test_canonical_sign_at_exactly_zero_w(vec):
    q = np.array([[0.0, *vec], [0.0, *(-np.array(vec))], [-1.0, *vec]])
    got = quat_normalize(q)
    for row, orig in zip(got, q):
        # the same rotation: the row is orig's direction, up to sign
        np.testing.assert_allclose(np.abs(row @ orig), np.linalg.norm(orig), rtol=1e-12)
        assert row[np.flatnonzero(row)[0]] > 0.0
    # w stays exactly zero, q and -q take the same sign, and normalizing
    # again flips no sign
    assert np.all(got[:2, 0] == 0.0)
    np.testing.assert_array_equal(got[0], got[1])
    np.testing.assert_allclose(quat_normalize(got), got, rtol=0.0, atol=1e-15)
