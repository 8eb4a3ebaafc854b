"""Reference free energies that share no code with `casimir_lab.lifshitz`.

Three oracles for the Casimir free energy between parallel plates:

* an ideal metal in closed form: perfect reflection of both polarizations
  at every Matsubara frequency xi_n > 0 and of TM alone at xi_0 = 0 (the
  zero-frequency channel a dissipative metal keeps). Each frequency then
  contributes the closed-form moment

      I(x) = int_x^inf y ln(1 - e^-y) dy = -(x Li2(e^-x) + Li3(e^-x)),

  with x = 2 d xi_n / c, summed as polylogarithm series in numpy;
* the Drude metal by adaptive `scipy.integrate.quad`, nested 1-D integrals
  with an explicit Matsubara sum, for the engine's own dielectric model;
* the plasma metal at T = 0 as its series in the skin depth over the gap,
  the one check of finite-omega_p physics against a formula the engine
  does not share;
* a dilute non-dispersive dielectric at T = 0, whose energy tends to the
  pairwise-summed Casimir-Polder interaction.

It also keeps the Gauss-Laguerre builder that the pair of rules
`casimir_lab.quadrature.LAGUERRE_PAIR` stores as constants was taken from,
and a 40-digit Gauss-Legendre rule by mpmath to check the engine's rules.

The tests compare the engine against these, and bound the 300 K crossover
of the Drude curves with the first, so no expected value is taken from the
engine itself.
"""

import functools
import math

import numpy as np

from casimir_lab.constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT, ZETA3

# series terms run until e^-x falls below e^-40, far under double precision
_TAIL_EXPONENT = 40.0


def _log_moment(x):
    """I(x) = int_x^inf y ln(1 - e^-y) dy for x > 0, by the polylog series."""
    x = np.asarray(x, dtype=float)
    m = np.arange(1, math.ceil(_TAIL_EXPONENT / x.min()) + 2)[:, None]
    return -np.sum(np.exp(-m * x) * (x / m**2 + 1.0 / m**3), axis=0)


def ideal_t0_free_energy(d):
    """Perfect-mirror free energy per area at T = 0, -pi^2 hbar c / (720 d^3)."""
    return -math.pi**2 * HBAR * SPEED_OF_LIGHT / (720.0 * d**3)


def ideal_metal_free_energy(d, T):
    """Free energy per area (J/m^2) of ideal mirrors without the xi = 0 TE mode.

    F = k_B T / (8 pi d^2) [-zeta(3)/2 + 2 sum_{n>=1} I(n x_1)], with
    x_1 = 4 pi k_B T d / (hbar c): the n = 0 term carries the Matsubara
    weight 1/2 and TM only, every n >= 1 term both polarizations.
    """
    x1 = 4.0 * math.pi * BOLTZMANN * T * d / (HBAR * SPEED_OF_LIGHT)
    n = np.arange(1, math.ceil(_TAIL_EXPONENT / x1) + 1)
    total = -0.5 * ZETA3 + 2.0 * float(np.sum(_log_moment(n * x1)))
    return BOLTZMANN * T / (8.0 * math.pi * d * d) * total


def classical_slope(T):
    """45 zeta(3) k_B T / (pi^3 hbar c), in 1/m.

    The xi = 0 TM term alone, -zeta(3) k_B T / (16 pi d^2), is this times d
    times the ideal T = 0 energy: the large-gap limit of the thermal ratio.
    """
    return 45.0 * ZETA3 * BOLTZMANN * T / (math.pi**3 * HBAR * SPEED_OF_LIGHT)


def ideal_metal_crossover(T):
    """Gap (m) at which the ideal-metal free energy at T equals the T = 0 one.

    Bisection on [1, 10] um to a relative width of 1e-12; raises ValueError
    if the ratio does not cross 1 there.
    """
    lo, hi = 1e-6, 1e-5

    def excess(d):
        return ideal_metal_free_energy(d, T) / ideal_t0_free_energy(d) - 1.0

    if not excess(lo) < 0.0 < excess(hi):
        raise ValueError(f"[{lo}, {hi}] m does not bracket the crossover at {T} K")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def drude_free_energy(d, T, omega_p, gamma):
    """Lifshitz free energy per area (J/m^2) of Drude plates by `scipy` quad.

    eps(i xi) = 1 + omega_p^2 / (xi (xi + gamma)), omega_p and gamma in
    rad/s. T = 0 takes the double integral over xi; T > 0 the Matsubara sum
    with the Drude n = 0 term (TM reflects fully, TE not at all) in closed
    form. Integration runs in x = 2 d xi / c and y = 2 kappa d, to a relative
    1e-10 outside and 1e-11 inside. Needs scipy.
    """
    from scipy.integrate import quad

    def moment(x):
        # int_x^inf y [ln(1 - r_TE^2 e^-y) + ln(1 - r_TM^2 e^-y)] dy
        xi = SPEED_OF_LIGHT * x / (2.0 * d)
        eps = 1.0 + omega_p**2 / (xi * (xi + gamma))

        def integrand(y):
            s = math.sqrt(y * y + (eps - 1.0) * x * x)
            r_te = (y - s) / (y + s)
            r_tm = (eps * y - s) / (eps * y + s)
            decay = math.exp(-y)
            return y * (math.log1p(-r_te * r_te * decay) + math.log1p(-r_tm * r_tm * decay))

        return quad(integrand, x, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    if T == 0.0:
        total = quad(moment, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        return HBAR * SPEED_OF_LIGHT / (32.0 * math.pi**2 * d**3) * total
    x1 = 4.0 * math.pi * BOLTZMANN * T * d / (HBAR * SPEED_OF_LIGHT)
    total = -0.5 * ZETA3 + sum(
        moment(n * x1) for n in range(1, math.ceil(_TAIL_EXPONENT / x1) + 1)
    )
    return BOLTZMANN * T / (8.0 * math.pi * d * d) * total


#: P/P0 = sum_k p_k x^k for plasma-model plates at T = 0, x = c / (omega_p d)
#: (Bordag, Mohideen & Mostepanenko, Phys. Rep. 353, 1 (2001); Bordag et
#: al., Advances in the Casimir Effect, OUP 2009)
_PLASMA_PRESSURE_SERIES = (
    1.0,
    -16.0 / 3.0,
    24.0,
    -640.0 / 7.0 * (1.0 - math.pi**2 / 210.0),
    2800.0 / 9.0 * (1.0 - 163.0 * math.pi**2 / 7350.0),
)


def ideal_t0_pressure(d):
    """Perfect-mirror attractive pressure at T = 0, pi^2 hbar c / (240 d^4)."""
    return math.pi**2 * HBAR * SPEED_OF_LIGHT / (240.0 * d**4)


def plasma_t0_ratios(d, omega_p, order=3):
    """(E/E0, P/P0, (dP/dd)/(dP0/dd)) of plasma-model plates at T = 0.

    The series in x = c / (omega_p d) up to x^order, over the perfect-mirror
    values E0 ~ d^-3, P0 = -dE0/dd and dP0/dd = -4 P0 / d.  Since x ~ 1/d,
    the k-th energy coefficient is the pressure's times 3/(k + 3) and the
    k-th slope coefficient the pressure's times (k + 4)/4:

        E/E0 = 1 - 4x + (72/5)x^2 - (320/7)(1 - pi^2/210)x^3 + ...
        P/P0 = 1 - (16/3)x + 24x^2 - (640/7)(1 - pi^2/210)x^3 + ...
        slope = 1 - (20/3)x + 36x^2 - 160(1 - pi^2/210)x^3 + ...

    The truncation error is O(x^(order + 1)); order runs up to 4.
    """
    x = SPEED_OF_LIGHT / (omega_p * np.asarray(d, dtype=float))
    k = np.arange(order + 1)
    p = np.array(_PLASMA_PRESSURE_SERIES[: order + 1])
    powers = x[..., None] ** k
    return tuple(powers @ (p * w) for w in (3.0 / (k + 3.0), 1.0, (k + 4.0) / 4.0))


def dilute_dielectric_t0_energy(d, eta):
    """Energy per area (J/m^2) of plates with eps = 1 + eta at T = 0, eta -> 0.

    A frequency-independent dielectric has no length scale, so E d^3 does
    not depend on d; to lowest order in eta it is the Casimir-Polder energy
    summed pairwise over both half-spaces (Lifshitz, Dzyaloshinskii &
    Pitaevskii, Adv. Phys. 10, 165 (1961)):

        E d^3 / (hbar c) = -23 eta^2 / (1920 pi^2) + O(eta^3).
    """
    return -23.0 * eta**2 * HBAR * SPEED_OF_LIGHT / (1920.0 * math.pi**2 * d**3)


def gauss_laguerre(n):
    """Gauss-Laguerre nodes t and weights times e^t on [0, inf), n >= 2:
    sum_i (w_i e^t_i) f(t_i) integrates f(t) = e^-t p(t) exactly for a
    polynomial p of degree up to 2n - 1.

    Without ``numpy.polynomial``: the eigenvalues of the Jacobi matrix of
    L_n (diagonal 2k + 1, off-diagonal k), one Newton step, then the
    Christoffel weights w e^t = 1/sum_{k<n} l_k(t)^2 with l_k = L_k e^(-t/2),
    which the three-term recurrence keeps within [-1, 1], so w e^t keeps its
    relative precision where w underflows: ~1e-14 at 32 nodes, where
    t/((n + 1)^2 l_(n+1)^2) from the same recurrence is ~1e-12 off.
    """
    t = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1))
    _, l_prev, l_n = _laguerre_series(t, n)
    t -= t * l_n / (n * (l_n - l_prev))  # L_n' = n (L_n - L_n-1) / t
    return t, 1.0 / _laguerre_series(t, n)[0]


def _laguerre_series(t, n):
    """sum_{k<n} l_k^2, l_(n-1) and l_n at t, l_k = L_k(t) e^(-t/2), by
    (k + 1) l_(k+1) = (2k + 1 - t) l_k - k l_(k-1)."""
    l_prev = np.exp(-0.5 * t)
    l_k, squares = (1.0 - t) * l_prev, l_prev * l_prev
    for k in range(1, n):
        squares += l_k * l_k
        l_prev, l_k = l_k, ((2 * k + 1 - t) * l_k - k * l_prev) / (k + 1)
    return squares, l_prev, l_k


@functools.lru_cache(maxsize=None)
def gauss_legendre_40_digits(n):
    """Gauss-Legendre nodes and weights on [-1, 1] for n >= 1, ascending, as
    floats rounded from a 40-digit rule: Newton in mpmath on P_n by its
    three-term recurrence from each root x > 0's cos(pi (k - 1/4) / (n + 1/2)),
    until a step is below 1e-35, the centre x = 0 of an odd n exactly, the
    weights 2/((1 - x^2) P_n'(x)^2), and the mirror.  Needs mpmath; ~0.7 s
    for n = 6, 12, ..., 192, so each n is built once."""
    import mpmath

    def legendre(x):  # P_n(x) and P_n'(x)
        p_prev, p_n = mpmath.mpf(1), x
        for k in range(1, n):
            p_prev, p_n = p_n, ((2 * k + 1) * x * p_n - k * p_prev) / (k + 1)
        return p_n, n * (x * p_n - p_prev) / (x * x - 1)

    with mpmath.workdps(40):
        roots = [mpmath.mpf(0)] * (n % 2)
        for k in range(n // 2, 0, -1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            step = 1
            while abs(step) > mpmath.mpf(10) ** -35:
                p_n, slope = legendre(x)
                step = p_n / slope
                x -= step
            roots.append(x)
        nodes = np.array(roots, dtype=float)
        weights = np.array([2 / ((1 - x * x) * legendre(x)[1] ** 2) for x in roots], dtype=float)
    mirror = slice(n % 2, None)
    return (np.concatenate((-nodes[mirror][::-1], nodes)),
            np.concatenate((weights[mirror][::-1], weights)))
