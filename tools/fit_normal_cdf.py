"""Refit the rational coefficients of edgereid.nn's normal-CDF kernel and
print the maximum errors of the Phi(x) that nn.gelu returns.

The kernel computes Phi(x) as h for x < 0 and 1 - h for x >= 0, where

    h = exp(-t**2 / 2) * P(t) / Q(t),    t = |x|,

and P / Q (P of degree 8, Q of degree 9 with Q(0) = 1) is a fit of
erfcx(t / sqrt 2) / 2 = Phi(-t) * exp(t**2 / 2) on [0, T], T = 6 sqrt 2.
Writing the fit in t folds the 1 / sqrt 2 of a = |x| / sqrt 2 and the factor
1/2 into the coefficients. The range ends at a = 6, where exp(-a**2) is
2.3e-16, so past it h is negligible against 1 and below 1e-17. The kernel
evaluates the polynomials in u = -t, so it stores the t**k coefficients
times (-1)**k.

The fit is a relative-error least squares on Chebyshev points, linearised
and reweighted by the previous denominator (Sanathanan-Koerner iteration),
in 50-digit mpmath arithmetic. It is deterministic: with mpmath 1.3.0 a
refit reproduces the coefficients in edgereid.nn bit for bit, and the
script says whether it did.
The errors are measured on the kernel in edgereid.nn with the refit
coefficients swapped in, against mpmath's ncdf of the same float64 inputs:
absolute error on a grid over [-40, 40] plus random points, and relative
error on [-8, 0].

Needs numpy and mpmath (stdlib otherwise); it imports edgereid from the
repository's src directory:

    python tools/fit_normal_cdf.py

It takes about ten seconds on one core.
"""

import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
from edgereid import nn  # noqa: E402

mp.mp.dps = 50
P_DEGREE = 8
Q_DEGREE = 9
POINTS = 300
ITERATIONS = 8


def target(t):
    """erfcx(t / sqrt 2) / 2, the function R fits."""
    a = t / mp.sqrt(2)
    return mp.erfc(a) * mp.exp(a * a) / 2


def fit(upper):
    """(P, Q) coefficients, lowest degree first, and the fit's largest
    relative error on its points, in exact arithmetic."""
    ts = [upper * (1 - mp.cos(mp.pi * (i + 0.5) / POINTS)) / 2
          for i in range(POINTS)]
    gs = [target(t) for t in ts]
    denominators = [mp.mpf(1)] * POINTS
    unknowns = P_DEGREE + 1 + Q_DEGREE
    for _ in range(ITERATIONS):
        # P(t) - g(t) * (Q(t) - 1) = g(t), each row divided by g * Q_previous
        a = mp.matrix(POINTS, unknowns)
        b = mp.matrix(POINTS, 1)
        for i, (t, g) in enumerate(zip(ts, gs)):
            w = 1 / (g * denominators[i])
            for k in range(P_DEGREE + 1):
                a[i, k] = w * t ** k
            for k in range(1, Q_DEGREE + 1):
                a[i, P_DEGREE + k] = -w * g * t ** k
            b[i] = w * g
        solution, _ = mp.qr_solve(a, b)
        p = [solution[k] for k in range(P_DEGREE + 1)]
        q = [mp.mpf(1)] + [solution[P_DEGREE + k] for k in range(1, Q_DEGREE + 1)]
        denominators = [mp.polyval(q[::-1], t) for t in ts]
    worst = max(abs(mp.polyval(p[::-1], t) / d / g - 1)
                for t, g, d in zip(ts, gs, denominators))
    return p, q, worst


def coefficient_array(p, q) -> np.ndarray:
    """The kernel's [degree + 1, 2] layout: row k holds the u**k = (-t)**k
    coefficients of P and Q, P padded with zeros to Q's degree."""
    p = [float((-1) ** k * v) for k, v in enumerate(p)]
    q = [float((-1) ** k * v) for k, v in enumerate(q)]
    p += [0.0] * (Q_DEGREE - P_DEGREE)
    return np.array([p, q]).T.copy()


def kernel_errors(rng: np.random.Generator) -> dict[str, float]:
    grid = np.concatenate([np.linspace(-40.0, 40.0, 16001),
                           rng.uniform(-40.0, 40.0, 2000),
                           rng.normal(0.0, 3.0, 2000)])
    lower = np.linspace(-8.0, 0.0, 8001)
    errors = {}
    for name, x in (("absolute, [-40, 40]", grid), ("relative, [-8, 0]", lower)):
        got = nn.gelu(x)[1]
        want = np.array([float(mp.ncdf(mp.mpf(v))) for v in x.tolist()])
        diff = np.abs(got - want)
        errors[name] = float(np.max(diff if x is grid else diff / want))
    ends = nn.gelu(np.array([-np.inf, np.inf]))[1]
    errors["Phi(-inf), Phi(inf)"] = tuple(ends.tolist())
    return errors


def main() -> int:
    p, q, worst = fit(6 * mp.sqrt(2))
    coeffs = coefficient_array(p, q)
    print(f"fit: P degree {P_DEGREE}, Q degree {Q_DEGREE} on [0, 6 sqrt 2], "
          f"largest relative error {mp.nstr(worst, 3)} in exact arithmetic")
    print("_CDF_COEFFS rows, (P, Q) per power of u = -t:")
    for k, (pk, qk) in enumerate(coeffs.tolist()):
        print(f"    ({pk!r}, {qk!r}),  # u**{k}")
    print("matches edgereid.nn._CDF_COEFFS bit for bit:",
          np.array_equal(coeffs, nn._CDF_COEFFS))
    nn._CDF_COEFFS = coeffs
    for name, value in kernel_errors(np.random.default_rng(0)).items():
        print(f"kernel error {name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
