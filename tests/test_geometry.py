import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oikg.errors import DegeneratePose, InvalidArgument
from oikg.geometry import (
    TWO_PI,
    angular_distance,
    bracketing_columns,
    grid_columns,
    nearest_column,
    relative_pose,
    trig_embed,
    wrap_angle,
)


def brute_min_circular(a, b, k_range=4):
    """Independent oracle: min over k in [-k_range, k_range] of |a - b + 2k*pi|."""
    ks = np.arange(-k_range, k_range + 1)
    return np.min(np.abs(a - b + 2.0 * np.pi * ks))


def test_wrap_identity():
    assert wrap_angle(0.0) == 0.0


def test_wrap_periodicity():
    assert wrap_angle(TWO_PI + 0.5) == pytest.approx(0.5, abs=1e-12)


def test_wrap_negative():
    assert wrap_angle(-0.25) == pytest.approx(TWO_PI - 0.25, abs=1e-12)


def test_wrap_idempotent():
    rng = np.random.default_rng(11)
    for a in rng.uniform(-50, 50, size=2000):
        w = wrap_angle(float(a))
        assert 0.0 <= w < TWO_PI
        assert wrap_angle(w) == w


def test_wrap_tiny_negative_stays_in_range():
    w = wrap_angle(-1e-18)
    assert 0.0 <= w < TWO_PI


def test_wrap_rejects_nonfinite():
    with pytest.raises(InvalidArgument):
        wrap_angle(float("nan"))
    with pytest.raises(InvalidArgument):
        wrap_angle(float("inf"))


@pytest.mark.parametrize("a, b, shown", [
    (math.nan, 0.0, "nan"), (0.0, math.inf, "inf"), (-math.inf, math.nan, "-inf"),
    (math.nan, math.inf, "nan")])
def test_angular_distance_rejects_nonfinite_naming_the_first(a, b, shown):
    """A NaN or infinite argument raises, naming the first such argument;
    so does the heading of a column bracket."""
    with pytest.raises(InvalidArgument) as err:
        angular_distance(a, b)
    assert str(err.value) == f"non-finite angle or coordinate: {shown}"
    with pytest.raises(InvalidArgument) as err:
        bracketing_columns(a if not math.isfinite(a) else b, 4)
    assert str(err.value) == f"non-finite angle or coordinate: {shown}"


def test_angular_distance_examples():
    assert angular_distance(1.3, 1.3) == 0.0
    assert angular_distance(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert angular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)


def test_angular_distance_matches_brute_force():
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-10, 10, size=(100_000, 2))
    for a, b in pairs[:5000]:  # full 1e5 sweep lives in the acceptance suite
        assert abs(angular_distance(a, b) - brute_min_circular(a, b)) <= 1e-12


def test_angular_distance_properties():
    rng = np.random.default_rng(13)
    triples = rng.uniform(-10, 10, size=(100_000, 3))
    for a, b, c in triples[:20_000]:
        dab = angular_distance(a, b)
        assert dab == angular_distance(b, a)
        assert 0.0 <= dab <= math.pi
        # triangle inequality on the circle
        assert angular_distance(a, c) <= dab + angular_distance(b, c) + 1e-12


def test_angular_distance_zero_iff_congruent():
    assert angular_distance(0.3, 0.3 + 6 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert angular_distance(0.3, 0.4) > 0.0


def test_trig_embed_examples():
    assert trig_embed(0.0, 0.0) == pytest.approx([0, 1, 0, 1], abs=1e-12)
    assert trig_embed(math.pi / 2, 0.0) == pytest.approx([1, 0, 0, 1], abs=1e-12)
    assert trig_embed(math.pi, -math.pi / 2) == pytest.approx([0, -1, -1, 0], abs=1e-12)


def test_trig_embed_unit_circle():
    rng = np.random.default_rng(3)
    for h, e in rng.uniform(-10, 10, size=(2000, 2)):
        sh, ch, se, ce = trig_embed(h, e)
        assert sh * sh + ch * ch == pytest.approx(1.0, abs=1e-12)
        assert se * se + ce * ce == pytest.approx(1.0, abs=1e-12)


def test_relative_pose_axis_aligned():
    p = relative_pose((0, 0, 0), (1, 0, 0))
    assert (p.heading, p.elevation, p.length) == pytest.approx((0, 0, 1), abs=1e-12)
    p = relative_pose((0, 0, 0), (0, 1, 0))
    assert (p.heading, p.elevation, p.length) == pytest.approx((math.pi / 2, 0, 1), abs=1e-12)


def test_relative_pose_diagonal():
    p = relative_pose((0, 0, 0), (1, 1, 1))
    assert p.heading == pytest.approx(math.pi / 4, abs=1e-12)
    assert p.elevation == pytest.approx(math.atan2(1, math.sqrt(2)), abs=1e-12)
    assert p.length == pytest.approx(math.sqrt(3), abs=1e-12)


def test_relative_pose_coincident_raises():
    with pytest.raises(DegeneratePose):
        relative_pose((1, 2, 3), (1, 2, 3))


def test_relative_pose_inversion_flips():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = rng.uniform(-10, 10, size=3)
        b = rng.uniform(-10, 10, size=3)
        fwd = relative_pose(a, b)
        rev = relative_pose(b, a)
        assert angular_distance(rev.heading, fwd.heading + math.pi) == pytest.approx(0.0, abs=1e-9)
        assert rev.elevation == pytest.approx(-fwd.elevation, abs=1e-9)
        assert rev.length == pytest.approx(fwd.length, abs=1e-12)


def apply_pose(frm, pose):
    """Endpoint reached by following ``pose`` from ``frm``."""
    ch = math.cos(pose.elevation)
    return (
        float(frm[0]) + pose.length * ch * math.cos(pose.heading),
        float(frm[1]) + pose.length * ch * math.sin(pose.heading),
        float(frm[2]) + pose.length * math.sin(pose.elevation),
    )


def test_relative_pose_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        a = rng.uniform(-20, 20, size=3)
        b = rng.uniform(-20, 20, size=3)
        got = apply_pose(a, relative_pose(a, b))
        assert np.max(np.abs(np.asarray(got) - b)) <= 1e-9


def nearest_view(candidate_heading, view_headings):
    """Brute-force oracle: index and distance of the view heading closest to
    a candidate heading, scanning every view; ties break to the lowest
    index."""
    if len(view_headings) == 0:
        raise InvalidArgument("nearest_view needs at least one view heading")
    best_i = 0
    best_d = angular_distance(candidate_heading, view_headings[0])
    for i in range(1, len(view_headings)):
        d = angular_distance(candidate_heading, view_headings[i])
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def test_nearest_view_exact_match():
    headings = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert nearest_view(0.0, headings) == (0, 0.0)


def test_nearest_view_scan():
    headings = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    i, d = nearest_view(math.pi / 4 + 0.01, headings)
    assert i == 1
    assert d == pytest.approx(math.pi / 4 - 0.01, abs=1e-12)


def test_nearest_view_tie_lowest_index():
    i, d = nearest_view(math.pi / 4, [0.0, math.pi / 2])
    assert i == 0
    assert d == pytest.approx(math.pi / 4, abs=1e-12)


def test_nearest_view_empty_raises():
    with pytest.raises(InvalidArgument):
        nearest_view(0.0, [])


def test_nearest_view_matches_exhaustive_scan():
    rng = np.random.default_rng(23)
    for _ in range(500):
        k = int(rng.integers(1, 9))
        views = [float(v) for v in rng.uniform(0, TWO_PI, size=k)]
        cand = float(rng.uniform(-10, 10))
        i, d = nearest_view(cand, views)
        dists = [angular_distance(cand, v) for v in views]
        assert d == min(dists)
        assert i == dists.index(min(dists))


def grid_heading(n):
    """Headings on and between the columns of an n-column grid: uniform
    draws, exact columns, exact midpoints (two roundings), the largest
    float below 2*pi, and the float neighbours of each."""
    step = TWO_PI / n
    cols = st.integers(0, n - 1)
    base = st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        cols.map(lambda j: j * step),
        cols.map(lambda j: (j + 0.5) * step),
        cols.map(lambda j: j * step + step / 2),
        st.just(math.nextafter(TWO_PI, 0.0)))
    return st.tuples(base, st.sampled_from((0, -1, 1))).map(
        lambda bs: bs[0] if bs[1] == 0 else math.nextafter(bs[0], bs[1] * math.inf))


def test_grid_columns_are_the_view_grid_floats():
    for n in range(1, 25):
        cols = grid_columns(n)
        assert all(type(c) is float for c in cols)
        np.testing.assert_array_equal(np.array(cols), np.arange(n) * (TWO_PI / n))
    with pytest.raises(InvalidArgument):
        grid_columns(0)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data())
def test_nearest_column_matches_scan(data):
    """The bracket lookup returns the brute-force scan's column and distance
    to the bit; every column outside the bracket is farther than half a bin
    (+1e-12), and on a grid whose columns repeat per elevation the scan's
    first view is that column's first row."""
    n = data.draw(st.integers(1, 24), label="n")
    h = data.draw(grid_heading(n), label="heading")
    cols = grid_columns(n)
    j, d = nearest_column(h, n)
    assert (j, d) == nearest_view(h, cols)
    bracket = bracketing_columns(h, n)
    near = {c for _, c in bracket}
    assert len(near) == len(bracket) == min(n, 2)
    for dist, c in bracket:
        assert dist == angular_distance(h, cols[c])
    for c in range(n):
        if c not in near:
            assert angular_distance(h, cols[c]) > math.pi / n + 1e-12
    ne = data.draw(st.integers(1, 3), label="elevations")
    assert nearest_view(h, np.repeat(np.arange(n) * (TWO_PI / n), ne)) == (j * ne, d)


def test_nearest_column_ties_low_and_rejects_nonfinite():
    assert nearest_column(math.pi / 4, 4) == (0, angular_distance(math.pi / 4, 0.0))
    assert nearest_column(math.nextafter(TWO_PI, 0.0), 4)[0] == 0
    with pytest.raises(InvalidArgument):
        nearest_column(float("nan"), 4)
