"""Panel quadrature against closed-form integrals of Bose-type kernels.

The zeta-function identities

    int_0^inf y   ln(1 - e^-y) dy = -zeta(3)
    int_0^inf y^2 ln(1 - e^-y) dy = -2 zeta(4)   (= -pi^4/45)
    int_0^inf y^2 e^-y / (1 - e^-y) dy = 2 zeta(3)
    int_0^inf y^3 e^-y / (1 - e^-y) dy = 6 zeta(4)

exercise exactly the integrand shapes the force engine produces, including
the integrable y ln y endpoint behaviour the graded opening panels exist for.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from casimir_lab.constants import ZETA3
from casimir_lab.errors import ConvergenceError
from casimir_lab.quadrature import (
    _GRADED_OPENING,
    DEFAULT_CUTOFF,
    gauss_legendre,
    integrate_decaying,
    integrate_decaying_2d,
    panel_edges,
)

ZETA4 = math.pi**4 / 90.0


def test_gauss_legendre_nodes_integrate_polynomials_exactly():
    x, w = gauss_legendre(6)
    # degree-11 polynomial is exact for 6 nodes
    assert np.sum(w * x**10) == pytest.approx(2.0 / 11.0, rel=1e-14, abs=0.0)
    assert np.sum(w * x**11) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [6 * 2**k for k in range(6)])
def test_gauss_legendre_is_numpys_rule_to_the_bit(n):
    # the rule repeats numpy's leggauss steps without importing
    # numpy.polynomial; every node count the ladder uses must match exactly
    x, w = gauss_legendre(n)
    want_x, want_w = leggauss(n)
    assert np.array_equal(x, want_x)
    assert np.array_equal(w, want_w)


def test_panel_edges_start_graded_and_reach_cutoff():
    edges = panel_edges()
    assert edges[0] == 0.0
    assert edges[-1] == DEFAULT_CUTOFF
    assert np.all(np.diff(edges) > 0.0)
    # opening panel is tiny compared to the first unit-scale panel
    assert edges[1] < 1e-3


def test_log_kernel_zeta3():
    value = integrate_decaying(lambda y: y * np.log1p(-np.exp(-y)), 1e-12)
    assert value == pytest.approx(-ZETA3, rel=1e-12)


def test_log_kernel_zeta4():
    value = integrate_decaying(lambda y: y * y * np.log1p(-np.exp(-y)), 1e-12)
    assert value == pytest.approx(-2.0 * ZETA4, rel=1e-12)


def test_bose_kernel_zeta3():
    def f(y):
        s = np.exp(-y)
        return y * y * s / (1.0 - s)

    assert integrate_decaying(f, 1e-12) == pytest.approx(2.0 * ZETA3, rel=1e-12)


def test_bose_kernel_zeta4():
    def f(y):
        s = np.exp(-y)
        return y**3 * s / (1.0 - s)

    assert integrate_decaying(f, 1e-12) == pytest.approx(6.0 * ZETA4, rel=1e-12)


def test_plain_exponential_unaffected_by_cutoff():
    assert integrate_decaying(lambda y: y * np.exp(-y), 1e-12) == pytest.approx(
        1.0, rel=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.5, max_value=5.0))
def test_scaled_exponential_family(a):
    # int_0^inf y e^{-a y} dy = 1/a^2; decay faster than e^-y for a >= 1,
    # slower down to a = 0.5 where the cutoff tail is still < 1e-12
    value = integrate_decaying(lambda y: y * np.exp(-a * y), 1e-11)
    assert value == pytest.approx(1.0 / (a * a), rel=1e-9)


def shifted_bose_integrals(a):
    """int_a^inf y ln(1 - e^-y) dy = -(a Li2(e^-a) + Li3(e^-a)) and
    int_a^inf y^2 e^-y/(1 - e^-y) dy = sum_k e^(-ka) (a^2/k + 2a/k^2 + 2/k^3),
    each summed term by term from the geometric series of 1/(1 - e^-y)."""
    k = np.arange(1.0, math.ceil(40.0 / a) + 50.0)
    z = np.exp(-k * a)
    log_kernel = -math.fsum(z * (a / k**2 + 1.0 / k**3))
    bose_kernel = math.fsum(z * (a * a / k + 2.0 * a / k**2 + 2.0 / k**3))
    return log_kernel, bose_kernel


@pytest.mark.parametrize(
    "a",
    [8.0 * e * (1.0 + sign * 1e-3) for e in _GRADED_OPENING for sign in (-1, 1)] + [1.15, 11.5],
)
def test_offset_layout_against_shifted_closed_forms(a):
    # written in t = y - a, each kernel's y ln y or 1/y endpoint sits at
    # t = -a; just below and just above 8 e, the graded edge e is kept or
    # dropped, and either way the thinned opening must still resolve it
    def f(t):
        y = t + a
        return np.stack([y * np.log1p(-np.exp(-y)), y * y / np.expm1(y)])[:, None]

    got = integrate_decaying(f, 1e-12, a)[:, 0]
    np.testing.assert_allclose(got, shifted_bose_integrals(a), rtol=1e-12, atol=0.0)


def test_zero_offset_is_the_default_layout():
    def f(t):
        return np.stack([t * np.log1p(-np.exp(-t)), np.exp(-t) * np.cos(20.0 * t)])

    assert np.array_equal(integrate_decaying(f, 1e-12, 0.0), integrate_decaying(f, 1e-12))


def test_vectorized_rows_match_scalar_rows():
    scales = np.array([1.0, 2.0, 3.5])

    def rows(t):
        return scales[:, None] * np.exp(-scales[:, None] * t[None, :])

    got = integrate_decaying(rows, 1e-12)
    want = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_oscillatory_kernel_refines_past_the_first_doubling():
    # int_0^inf e^-y cos(a y) dy = 1/(1 + a^2); at a = 20 the wide panels
    # need more than the 12 nodes of the first doubling
    a = 20.0
    value = integrate_decaying(lambda y: np.exp(-y) * np.cos(a * y), 1e-12)
    assert value == pytest.approx(1.0 / (1.0 + a * a), rel=1e-9)


def test_panel_settles_only_when_every_family_member_does():
    # the smooth row settles at once; the oscillatory one must still refine
    a = np.array([0.0, 20.0])
    got = integrate_decaying(lambda y: np.exp(-y) * np.cos(a[:, None] * y), 1e-12)
    np.testing.assert_allclose(got, 1.0 / (1.0 + a * a), rtol=0.0, atol=1e-11)


def test_each_kind_settles_on_its_own_scale():
    # an axis in front of the family holds kinds: the oscillatory kind, 1e-9
    # the size of the other, still meets rel_tol of its own integral
    a = 20.0

    def f(y):
        return np.stack([np.exp(-y), 1e-9 * np.exp(-y) * np.cos(a * y)])[:, None]

    got = integrate_decaying(f, 1e-10)
    assert got.shape == (2, 1)
    assert got[1, 0] == pytest.approx(1e-9 / (1.0 + a * a), rel=1e-9, abs=0.0)


def test_2d_each_kind_settles_on_its_own_scale():
    a = 5.0

    def f(x, t):
        y = x + t
        return np.stack([np.exp(-y), 1e-9 * np.exp(-y) * np.cos(a * t)])

    got = integrate_decaying_2d(f, 1e-10)
    assert got.shape == (2,)
    assert got[1] == pytest.approx(1e-9 / (1.0 + a * a), rel=1e-9, abs=0.0)


def test_the_kind_that_cannot_settle_is_named():
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying(lambda y: np.stack([np.exp(-y), fast_cosine(y)]), 1e-12)
    assert err.value.kind == 0  # a family of two is one kind
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying(lambda y: np.stack([np.exp(-y), fast_cosine(y)])[:, None], 1e-12)
    assert err.value.kind == 1


def log_kernel(x, t):
    # int int (x+t) ln(1-e^-(x+t)) dx dt = int_0^inf y^2 ln(1-e^-y) dy
    y = x + t
    return y * np.log1p(-np.exp(-y))


def test_2d_log_kernel_zeta4():
    value = integrate_decaying_2d(log_kernel, 1e-11)
    assert value == pytest.approx(-math.pi**4 / 45.0, rel=1e-10)


def test_2d_separable_exponential():
    def f(x, t):
        return np.exp(-x) * np.exp(-t)

    assert integrate_decaying_2d(f, 1e-11) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("k, j", [(k, j) for k in range(5) for j in range(5 - k)])
def test_2d_moments_away_from_the_corner(k, j):
    # int int x^k t^j e^-(x+t) dx dt = k! j!; for j + k > 0 the mass sits
    # away from x = t = 0, on the merged t-panels and the wide panels
    value = integrate_decaying_2d(lambda x, t: x**k * t**j * np.exp(-x - t), 1e-12)
    assert value == pytest.approx(math.factorial(k) * math.factorial(j), rel=1e-10, abs=0.0)


def test_2d_oscillatory_inner_integral():
    a = 5.0
    value = integrate_decaying_2d(lambda x, t: np.exp(-x - t) * np.cos(a * t), 1e-11)
    assert value == pytest.approx(1.0 / (1.0 + a * a), rel=1e-9)


def fast_cosine(y):
    # cos(1e4 y) turns thousands of times on every panel wider than 1, far more
    # than the node caps resolve, so no tolerance near 1e-12 is reachable
    return np.exp(-y) * np.cos(1e4 * y)


def test_unreachable_tolerance_raises_with_achieved_estimate():
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying(fast_cosine, 1e-12)
    assert err.value.achieved > err.value.requested


def test_a_non_finite_estimate_never_settles():
    # sqrt(y) exp(-y) settles at rel_tol 1e-13 with its first panel at 192
    # nodes; at 96 and 192 its smallest node lies below y = 1e-8.  Made
    # -inf there, it used to settle at -inf, as the limit took -inf's scale
    # with a RuntimeWarning: now the cell keeps refining, the limit grows
    # from finite estimates only, and the error achieved inf, not NaN
    assert integrate_decaying(lambda y: np.sqrt(y) * np.exp(-y), 1e-13) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-13, abs=0.0
    )
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying(
            lambda y: np.sqrt(y) * np.exp(-y) + np.log(np.where(y < 1e-8, 0.0, 1.0)), 1e-13
        )
    assert err.value.achieved == math.inf


def test_a_kind_that_settled_at_zero_does_not_make_the_error_nan():
    # kind 0 is 0 at every node: its limit, rel_tol times the tiny floor,
    # underflows to 0 at rel_tol 1e-300, and its 0/0 made the error of the
    # unsettled kind 1 read "achieved nan" and name kind 0
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying(lambda y: np.stack([0.0 * y, fast_cosine(y)])[:, None, :], 1e-300)
    assert err.value.achieved > err.value.requested
    assert err.value.kind == 1


def test_2d_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError) as err:
        integrate_decaying_2d(lambda x, t: fast_cosine(x + t), 1e-12)
    assert err.value.achieved > err.value.requested


def test_2d_cells_cost_at_most_two_passes_on_a_smooth_integrand():
    # 11 panels make an L-shaped layout of 62 rectangles (121 panel pairs,
    # less the merged t-panels and the corner beyond cutoff/2); at this tight
    # tolerance some rectangles need a third level, 24 x 24, yet the total
    # stays within two passes of 8 and 16 nodes on every rectangle
    assert len(panel_edges()) - 1 == 11
    values = 0

    def f(x, t):
        nonlocal values
        out = np.exp(-x - t)
        values += out.size
        return out

    assert integrate_decaying_2d(f, 1e-10) == pytest.approx(1.0, rel=1e-10)
    assert values <= 62 * (8**2 + 16**2)


def counted(g):
    """g and the number of values it has returned so far, ``[count]``."""
    values = [0]

    def f(*args):
        out = g(*args)
        values[0] += out.size
        return out

    return f, values


def test_2d_smooth_cells_settle_at_the_6_and_12_node_passes():
    # at the default tolerance a smooth integrand settles every rectangle at
    # the first doubling, so the 6- and 12-node passes are all it may pay for
    f, values = counted(lambda x, t: np.exp(-x - t))
    assert integrate_decaying_2d(f, 1e-8) == pytest.approx(1.0, rel=1e-8)
    assert values[0] <= 62 * (6**2 + 12**2)


def test_smooth_panels_settle_at_the_6_and_12_node_passes():
    # every one of the 11 panels settles at the first doubling
    f, values = counted(lambda y: np.exp(-y))
    assert integrate_decaying(f, 1e-8) == pytest.approx(1.0, rel=1e-8)
    assert values[0] <= 11 * (6 + 12)


def test_2d_call_hands_each_rectangle_its_nodes():
    # each level is one call f(x, t): x (nc, n, 1) the frequency nodes and
    # t (nc, 1, n) the t nodes of each of the nc unsettled rectangles, both
    # read-only; the first call covers the whole layout, and every node lies
    # in [0, cutoff]
    calls = []

    def f(x, t):
        calls.append((x.shape, t.shape))
        assert not (x.flags.writeable or t.flags.writeable)
        assert 0.0 <= x.min() and x.max() <= panel_edges()[-1]
        assert 0.0 <= t.min() and t.max() <= panel_edges()[-1]
        return np.exp(-x - t) * np.cos(5.0 * t)

    integrate_decaying_2d(f, 1e-11)
    assert len(calls) > 2
    assert calls[0] == ((62, 6, 1), (62, 1, 6))
    for (nc, n, one), t_shape in calls:
        assert one == 1 and t_shape == (nc, 1, n)
    assert [n for (_, n, _), _ in calls] == [6 * 2**k for k in range(len(calls))]


def test_2d_levels_are_read_only_and_shared_by_calls_on_the_same_cells():
    # a level's arrays depend only on its rectangles and node count: f may
    # not write them, and a second integral that settles the same cells at
    # every level is handed the same objects
    def recording(calls):
        def f(x, t):
            assert not any(array.flags.writeable for array in (x, t))
            calls.append((x, t))
            return np.exp(-x - t) * np.cos(5.0 * t)

        return f

    first, second = [], []
    value = integrate_decaying_2d(recording(first), 1e-11)
    assert integrate_decaying_2d(recording(second), 1e-11) == value
    assert len(first) == len(second) > 2
    for one, two in zip(first, second):
        assert all(a is b for a, b in zip(one, two))


@pytest.mark.parametrize("g", [0.02, 0.5])
def test_2d_drude_like_near_pole(g):
    # int_0^inf e^-x g/(x + g) dx = g e^g E1(g); a Drude eps has the same
    # pole just left of the frequency origin
    special = pytest.importorskip("scipy.special")
    value = integrate_decaying_2d(lambda x, t: np.exp(-x - t) * g / (x + g), 1e-11)
    assert value == pytest.approx(g * math.exp(g) * special.exp1(g), rel=1e-9)
