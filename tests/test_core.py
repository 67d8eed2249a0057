import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demtrack import Constants, Domain, ProcessSpec, check_initial_condition
from demtrack.processes import balls_in_bins_spec
from scan_reference import boundary_distance

BOX = Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))


def faces(domain, point):
    t, ys = point[0], point[1:]
    out = [t - domain.t_lo, domain.t_hi - t]
    for y, a, b in zip(ys, domain.lo, domain.hi):
        out += [y - a, b - y]
    return out


def test_boundary_distance_example():
    # independent oracle: enumerate all 2(a+1) face distances
    assert faces(BOX, (0.0, 1.0)) == [0.1, 2.0, 0.95, pytest.approx(0.1)]
    assert BOX.boundary_distance((0.0, 1.0)) == pytest.approx(0.1, rel=1e-12)


def test_boundary_distance_on_face_is_zero():
    assert BOX.boundary_distance((-0.1, 0.5)) == 0.0


def test_boundary_distance_outside_is_negative():
    assert BOX.boundary_distance((3.0, 0.5)) == pytest.approx(-1.0)
    assert not BOX.contains((3.0, 0.5))


def test_boundary_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        BOX.boundary_distance((0.0, 0.5, 0.5))


def test_nan_coordinate_is_outside():
    # a NaN coordinate lies in no box, at no known distance from it
    assert BOX.boundary_distance((0.0, math.nan)) == -math.inf
    assert BOX.boundary_distance((math.nan, 0.5)) == -math.inf
    assert not BOX.contains((0.0, math.nan))
    assert not BOX.contains((math.nan, 0.5))



TOP = int(np.iinfo(np.int64).max)
scales = st.one_of(st.just(1), st.integers(1, 10**12))


@st.composite
def face(draw, n):
    """A face at lo*n an integer (a face count), or any finite float, -3..3 mostly."""
    return draw(st.one_of(
        st.integers(-3 * n, 3 * n).map(lambda c: c / n),
        st.floats(-3.0, 3.0),
        st.floats(-1e30, 1e30),
    ))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=scales)
def test_count_bounds_are_the_open_box_on_counts(data, n):
    # lo < c/n < hi, c/n as the kernel computes it, holds exactly for the
    # counts c_lo..c_hi: checked at each bound and the counts around it
    lo, hi = sorted(data.draw(st.lists(face(n), min_size=2, max_size=2, unique=True)))
    c_lo, c_hi = Domain(-1.0, 1.0, (lo,), (hi,)).count_bounds(n)
    assert c_lo.dtype == c_hi.dtype == np.int64 and c_lo.shape == c_hi.shape == (1,)
    near = {int(c) + d for c in (c_lo[0], c_hi[0]) for d in range(-3, 4)}
    near |= {math.floor(v * n) + d for v in (lo, hi) if abs(v * n) < 2.0**62 for d in (-1, 0, 1)}
    for c in sorted(x for x in near if -TOP - 1 <= x <= TOP):
        inside = bool(lo < np.int64(c) / n < hi)
        assert (int(c_lo[0]) <= c <= int(c_hi[0])) == inside, (c, lo, hi, n)


def test_count_bounds_examples():
    box = Domain(-0.2, 1.0, (0.05, -0.3, 0.5), (1.3, 1.3, 0.6))
    c_lo, c_hi = box.count_bounds(20_000)
    assert c_lo.tolist() == [1001, -5999, 10001] and c_hi.tolist() == [25999, 25999, 11999]
    # n = 1: whole counts, the faces left out; none lies inside (0.5, 0.6)
    assert [b.tolist() for b in box.count_bounds(1)] == [[1, 0, TOP], [1, 1, -TOP - 1]]
    # a coordinate that no int64 count lies inside, and one that every count does
    assert [b.tolist() for b in Domain(0.0, 1.0, (1e300,), (2e300,)).count_bounds(7)] == [
        [TOP], [-TOP - 1]
    ]
    assert [b.tolist() for b in Domain(0.0, 1.0, (-1e300,), (1e300,)).count_bounds(7)] == [
        [-TOP - 1], [TOP]
    ]

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(t_lo=1.0, t_hi=0.0, lo=(0.0,), hi=(1.0,))
    with pytest.raises(ValueError):
        Domain(t_lo=0.0, t_hi=1.0, lo=(1.0,), hi=(1.0,))
    with pytest.raises(ValueError):
        Domain(t_lo=0.0, t_hi=math.inf, lo=(0.0,), hi=(1.0,))
    with pytest.raises(ValueError):
        Domain(t_lo=0.0, t_hi=1.0, lo=(0.0, 0.0), hi=(1.0,))
    with pytest.raises(ValueError, match="^domain needs at least one tracked coordinate$"):
        Domain(t_lo=0.0, t_hi=1.0, lo=(), hi=())


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(R=0.5), "R must be at least 1"),
        (dict(sigma=-0.1), "sigma must lie in [0, T]"),
        (dict(sigma=1.5), "sigma must lie in [0, T]"),
        (dict(sigma=math.nan), "sigma must lie in [0, T]"),
    ],
)
def test_constants_validation(bad, message):
    good = dict(R=1.0, T=1.0, sigma=0.5, margin=0.1)
    Constants(**good)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Constants(**{**good, **bad})


boxes = st.integers(min_value=1, max_value=3).flatmap(
    lambda a: st.tuples(
        st.floats(-5, 0, allow_nan=False), st.floats(0.1, 5),
        st.lists(st.tuples(st.floats(-5, 4.8), st.floats(0.1, 5)), min_size=a, max_size=a),
    )
)


def _mk_domain(draw):
    t_lo, t_span, ranges = draw
    return Domain(
        t_lo=t_lo,
        t_hi=t_lo + t_span,
        lo=tuple(lo for lo, _ in ranges),
        hi=tuple(lo + span for lo, span in ranges),
    )


@given(boxes, st.data())
@settings(max_examples=100)
def test_boundary_distance_is_1_lipschitz(drawn, data):
    dom = _mk_domain(drawn)
    coords = st.floats(-10, 10, allow_nan=False)
    p = data.draw(st.tuples(*([coords] * (dom.dim + 1))))
    q = data.draw(st.tuples(*([coords] * (dom.dim + 1))))
    gap = max(abs(x - y) for x, y in zip(p, q))
    assert abs(dom.boundary_distance(p) - dom.boundary_distance(q)) <= gap + 1e-12


@given(boxes, st.data())
@settings(max_examples=100)
def test_inner_ball_stays_inside(drawn, data):
    # any point with boundary distance > r contains its l-inf ball of radius r
    dom = _mk_domain(drawn)
    coords = st.floats(-10, 10, allow_nan=False)
    p = data.draw(st.tuples(*([coords] * (dom.dim + 1))))
    d = dom.boundary_distance(p)
    if d <= 1e-9:
        return
    r = 0.999 * d
    for signs in data.draw(
        st.lists(
            st.tuples(*([st.sampled_from((-1.0, 0.0, 1.0))] * (dom.dim + 1))),
            min_size=4, max_size=4,
        )
    ):
        corner = tuple(x + s * r for x, s in zip(p, signs))
        assert dom.contains(corner)


@given(boxes, st.integers(1, 3), st.integers(1, 4), st.data())
@settings(max_examples=100)
def test_distance_matches_the_scalar_loop(drawn, K, B, data):
    """``Domain.distance`` on a (K, B, a) stack of points, as ``rk4_solve``
    passes them, and ``boundary_distance`` on each point equal the scalar
    loop, on points anywhere, on faces, and with NaN or infinite coordinates."""
    dom = _mk_domain(drawn)
    ends = [(dom.t_lo, dom.t_hi), *zip(dom.lo, dom.hi)]

    def coord(axis):
        special = (*ends[axis], math.nan, math.inf, -math.inf)
        return st.one_of(st.floats(-10, 10), st.sampled_from(special))

    ts = np.array(data.draw(st.lists(coord(0), min_size=B, max_size=B)))
    ys = np.array([
        [data.draw(st.tuples(*(coord(k) for k in range(1, dom.dim + 1)))) for _ in range(B)]
        for _ in range(K)
    ])
    got = dom.distance(ts, ys)
    assert got.shape == (K, B)
    for q in range(K):
        for b in range(B):
            point = (float(ts[b]), *ys[q, b].tolist())
            want = boundary_distance(dom, point)
            single = dom.boundary_distance(point)
            assert type(single) is float
            assert got[q, b] == want and single == want, point


class TestInitialCondition:
    def setup_method(self):
        self.spec, _ = balls_in_bins_spec(1000, lam=0.01)

    def test_exact_anchor(self):
        assert check_initial_condition(self.spec, (1000,))

    def test_offset_at_equality_passes(self):
        assert check_initial_condition(self.spec, (1000 + 10,))  # lam*n = 10

    def test_offset_beyond_tolerance_fails(self):
        assert not check_initial_condition(self.spec, (1000 + 20,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_initial_condition(self.spec, (1000, 1))


def test_spec_validation():
    dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.0,), hi=(1.0,))
    drift = lambda t, y: -np.asarray(y)
    good = dict(n=10, drift=drift, L=1.0, delta=0.0, beta=1.0, lam=0.1,
                y_hat=(0.5,), domain=dom)
    ProcessSpec(**good)
    for key, bad in [("lam", 0.0), ("beta", 0.0), ("n", 0), ("delta", -1.0),
                     ("L", -0.5), ("y_hat", (2.0,)), ("y_hat", (0.5, 0.5))]:
        with pytest.raises(ValueError):
            ProcessSpec(**{**good, key: bad})


@pytest.mark.parametrize(
    "key, bad",
    [
        ("y_hat", (math.nan,)),
        ("y_hat", (math.inf,)),
        ("L", math.nan),
        ("L", math.inf),
        ("delta", math.nan),
        ("delta", math.inf),
        ("lam", math.nan),
        ("lam", math.inf),
        ("beta", math.nan),
        ("beta", math.inf),
        ("avg_step_bound", math.nan),
        ("trunc_gamma", math.inf),
        ("trunc_bound", -math.inf),
        ("trunc_x", math.nan),
    ],
)
def test_spec_rejects_non_finite_values(key, bad):
    dom = Domain(t_lo=-0.1, t_hi=1.0, lo=(0.0,), hi=(1.0,))
    good = dict(n=10, drift=lambda t, y: -np.asarray(y), L=1.0, delta=0.0, beta=1.0,
                lam=0.1, y_hat=(0.5,), domain=dom, avg_step_bound=1.0, trunc_gamma=0.1,
                trunc_bound=2.0, trunc_x=3.0)
    ProcessSpec(**good)
    with pytest.raises(ValueError, match="must be finite"):
        ProcessSpec(**{**good, key: bad})
