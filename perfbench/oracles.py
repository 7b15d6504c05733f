"""Reference computations made apart from orlicz-lab.

Nothing here calls the program's numerics: Orlicz functions, sampled
functions and modulars are evaluated in the linear domain from their closed
forms, and norms with closed forms are summed from their power series with
the standard library.  The only thing taken from the program is a quadrature
rule's nodes and weights, so that a modular can be recomputed on exactly the
rule a norm was solved on.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
# one ulp of a double in [1/2, 1)
ULP_BELOW_ONE = 2.0**-53


# -- Orlicz functions ----------------------------------------------------------


def counterexample_knots(n_max: int, r: float):
    """Knot abscissas x_n, 2 x_n and values x_n^(r/2), x_n^r of the paper's
    construction, x_1 = 4 and x_(n+1) = x_n^3 - 2 x_n, with integer x_n."""
    xs = [4]
    for _ in range(n_max - 1):
        xs.append(xs[-1] ** 3 - 2 * xs[-1])
    kx, ky = [], []
    for x in xs:
        lx = math.log(x)
        kx += [float(x), float(2 * x)]
        ky += [math.exp(0.5 * r * lx), math.exp(r * lx)]
    return np.array(kx), np.array(ky)


def psi_from_spec(spec: dict):
    """Vectorized linear-domain Psi for a function-spec document."""
    family = spec["family"]
    if family == "power":
        p = float(spec["p"])
        return lambda x: np.asarray(x, dtype=float) ** p
    if family == "exp_log_squared":
        return lambda x: np.expm1(np.log1p(np.asarray(x, dtype=float)) ** 2)
    if family == "exp_minus_one":
        return lambda x: np.expm1(np.asarray(x, dtype=float))
    if family == "paper_counterexample":
        kx, ky = counterexample_knots(int(spec["n_max"]), float(spec["r"]))
        # linear through the origin up to the first knot; beyond the last knot
        # the last segment continues
        xs = np.concatenate([[0.0], kx])
        ys = np.concatenate([[0.0], ky])
        tail = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

        def psi(x):
            x = np.asarray(x, dtype=float)
            out = np.interp(x, xs, ys)
            return np.where(x > xs[-1], ys[-1] + tail * (x - xs[-1]), out)

        return psi
    if family == "square_compose":
        inner = psi_from_spec(spec["inner"])
        return lambda x: inner(x) ** 2
    if family == "arg_square":
        inner = psi_from_spec(spec["inner"])
        return lambda x: inner(np.asarray(x, dtype=float) ** 2)
    raise ValueError(f"no reference Psi for family {family!r}")


def psi_inverse_at_one(spec: dict) -> float:
    """Psi^{-1}(1) in closed form."""
    family = spec["family"]
    if family == "power":
        return 1.0
    if family == "exp_log_squared":
        # (log(x + 1))^2 = log 2
        return math.expm1(math.sqrt(LN2))
    if family == "exp_minus_one":
        return LN2
    if family == "paper_counterexample":
        # the initial segment is x_1^(r/2 - 1) x, and it reaches 1 below x_1 = 4
        return 4.0 ** (1.0 - 0.5 * float(spec["r"]))
    if family == "arg_square":
        return math.sqrt(psi_inverse_at_one(spec["inner"]))
    if family == "square_compose":
        return psi_inverse_at_one(spec["inner"])
    raise ValueError(f"no closed-form inverse for family {family!r}")


# -- sampled functions ---------------------------------------------------------


def kernel_h(input_spec: dict, psi_spec: dict) -> float | None:
    """Window scale h of a kernel-shaped input, None for the others.  For a
    scaled kernel h = 1/Psi(x_j)."""
    form = input_spec["form"]
    if form == "kernel_squared":
        return float(input_spec["h"])
    if form == "scaled_kernel":
        return 1.0 / float(psi_from_spec(psi_spec)(float(input_spec["x_j"])))
    return None


def sample_values(input_spec: dict, psi_spec: dict, z) -> np.ndarray:
    """|f(z)| for a sampled-function spec document."""
    z = np.asarray(z, dtype=complex)
    form = input_spec["form"]
    if form == "monomial":
        return np.abs(z) ** int(input_spec["n"])
    if form == "constant":
        return np.full(z.shape, abs(complex(input_spec["value"])))
    if form == "polynomial":
        acc = np.zeros_like(z)
        for re, im in reversed(input_spec["coeffs"]):
            acc = acc * z + complex(re, im)
        return np.abs(acc)
    if form in ("kernel_squared", "scaled_kernel"):
        h = kernel_h(input_spec, psi_spec)
        xi_bar = complex(math.cos(input_spec["xi_angle"]), -math.sin(input_spec["xi_angle"]))
        amp = float(input_spec.get("x_j", 1.0))
        return amp * h * h / np.abs(1.0 - (1.0 - h) * xi_bar * z) ** 2
    raise ValueError(f"no reference values for form {form!r}")


def linear_modular(psi, abs_values, weights, c: float) -> float:
    """Integral of Psi(|f|/c) as a plain weighted sum, compensated with fsum."""
    terms = np.asarray(weights, dtype=float) * psi(np.asarray(abs_values) / c)
    return math.fsum(terms.ravel().tolist())


def bracket_holds(psi, abs_values, weights, lo: float, hi: float, tol: float):
    """The Luxemburg norm is the C with modular 1, and the modular falls as C
    grows, so a true bracket has M(lo) >= 1 >= M(hi).  Returns (ok, M(lo),
    M(hi))."""
    m_lo = linear_modular(psi, abs_values, weights, lo) if lo > 0 else math.inf
    m_hi = linear_modular(psi, abs_values, weights, hi)
    return (m_lo >= 1.0 - tol and m_hi <= 1.0 + tol), m_lo, m_hi


# -- closed-form norms under Psi = x^p -----------------------------------------


def kernel_power_norm(h: float, p: float, disk: bool) -> float:
    """L^p norm of u(z) = h^2/(1 - (1-h) conj(xi) z)^2.

    |u|^p = h^(2p) |sum_k c_k w^k|^2 with c_k = Gamma(k+p)/(Gamma(p) k!) and
    w = (1-h) conj(xi) z, so by orthogonality of z^k the integral of |u|^p is
    h^(2p) sum_k c_k^2 rho^(2k) m_k with m_k = 1 on the circle and 1/(k+1) on
    the disk.  Terms rise then fall; the sum stops once they are 1e-20 of the
    peak and falling."""
    log_rho2 = 2.0 * math.log1p(-h)
    lg_p = math.lgamma(p)
    terms, peak, k = [], 0.0, 0
    while True:
        log_c = math.lgamma(k + p) - lg_p - math.lgamma(k + 1)
        t = math.exp(2.0 * log_c + k * log_rho2)
        if disk:
            t /= k + 1
        terms.append(t)
        peak = max(peak, t)
        if k > 2 and t < 1e-20 * peak and t <= terms[-2]:
            break
        k += 1
    return h * h * math.fsum(terms) ** (1.0 / p)


def monomial_power_norm(n: int, p: float, disk: bool) -> float:
    """L^p norm of z^n: 1 on the circle, (2/(np+2))^(1/p) on the disk."""
    return (2.0 / (n * p + 2.0)) ** (1.0 / p) if disk else 1.0


def polynomial_l2_norm(coeffs, disk: bool) -> float:
    """Parseval: sqrt(sum |a_k|^2 m_k), m_k = 1 on the circle, 1/(k+1) on the
    disk."""
    return math.sqrt(math.fsum(
        (re * re + im * im) / ((k + 1) if disk else 1)
        for k, (re, im) in enumerate(coeffs)
    ))


def power_closed_form(space: str, psi_spec: dict, input_spec: dict) -> float | None:
    """Exact norm under Psi = x^p where one is known, else None."""
    if psi_spec["family"] != "power":
        return None
    p = float(psi_spec["p"])
    disk = space in ("bergman", "disk")
    form = input_spec["form"]
    if form == "monomial":
        return monomial_power_norm(int(input_spec["n"]), p, disk)
    if form == "constant":
        return abs(complex(input_spec["value"]))
    if form == "polynomial" and p == 2.0:
        return polynomial_l2_norm(input_spec["coeffs"], disk)
    if form in ("kernel_squared", "scaled_kernel"):
        h = kernel_h(input_spec, psi_spec)
        return float(input_spec.get("x_j", 1.0)) * kernel_power_norm(h, p, disk)
    return None


# -- the Morse-Transue ladder of the evaluation envelope -------------------------


def ladder_increment() -> float:
    """Growth of the envelope's c = 4 modular per refinement level.

    Psi(S/4) = 1/(1-|z|), and one level adds ten dyadic panels
    [1 - 2^-k, 1 - 2^-(k+1)], each carrying the integral of 2r/(1-r), which is
    2 ln 2 - 2^-k.  The innermost panel [1 - 2^-k, 1] diverges, but its
    Gauss-Legendre sum is scale invariant up to O(2^-k), so the increment is
    20 ln 2 up to an O(2^-k) remainder."""
    return 20.0 * LN2


def ladder_rounding_budget(r, r_weights) -> float:
    """Rounding allowance of the c = 4 modular on a radial rule.

    |z| near 1 is known to within a few ulps, so 1/(1-|z|) at a node carries a
    relative error of about 4 ulp/(1-|z|); summed against the weights this
    bounds what double precision can add to the modular.  Near the boundary
    it dominates the O(2^-k) remainder."""
    r = np.asarray(r, dtype=float)
    d = 1.0 - r
    return float(np.sum(np.asarray(r_weights) / d**2) * 4.0 * ULP_BELOW_ONE)
