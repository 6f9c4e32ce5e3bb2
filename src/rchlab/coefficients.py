"""Model coefficients for the rotation-modified Camassa-Holm equation.

The rotation speed omega enters through a wave-speed parameter
``c = sqrt(1 + omega^2) - omega``; everything else (the Galilean shift gamma
and the polynomial coefficients c1, c2, c3 of the nonlocal flux) is derived
from c by closed formulas plus one real cubic root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class ModelParams:
    """Derived coefficient set for a given rotation speed."""

    omega: float
    c: float
    alpha: float
    beta0: float
    beta: float
    omega1: float
    omega2: float
    gamma: float
    c0: float
    c1: float
    c2: float
    c3: float

    def quartic(self, u):
        """u^2 (c1 + u (c2 + c3 u)), the polynomial part of the nonlocal flux,
        as one new array.  Horner form: ``u**3`` and ``u**4`` of an array of
        both signs take numpy's generic power path, far slower than products."""
        q = u * self.c3
        q += self.c2
        q *= u
        q += self.c1
        q *= u
        q *= u
        return q


@dataclass(frozen=True)
class CubicRoot:
    """Real root of the gamma polynomial plus solve metadata."""

    value: float
    n_real_roots: int
    residual: float

    def __float__(self) -> float:
        return self.value


def cubic_residual(gamma: float, c: float, alpha: float, beta0: float,
                   beta: float, omega1: float, omega2: float) -> float:
    """Value of the gamma polynomial; zero at an exact root."""
    return (c - beta0 / beta - 2.0 * gamma
            + (omega1 / alpha**2) * gamma**2
            - (omega2 / alpha**3) * gamma**3)


def _polish_newton(poly, dpoly, x: float, iters: int = 50) -> float:
    # Newton refinement; falls back to the input on stagnation.
    for _ in range(iters):
        f = poly(x)
        df = dpoly(x)
        if df == 0.0:
            break
        step = f / df
        xn = x - step
        if not math.isfinite(xn):
            break
        if xn == x:
            break
        x = xn
    return x


def _bisect(poly, lo: float, hi: float, iters: int = 200) -> float:
    flo = poly(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = poly(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= abs(mid) * 1e-17 + 5e-324:
            break
    return 0.5 * (lo + hi)


def solve_gamma_cubic(c: float, alpha: float, beta0: float, beta: float,
                      omega1: float, omega2: float) -> CubicRoot:
    """Solve the gamma polynomial, returning the real root of smallest magnitude.

    The polynomial is ``(c - beta0/beta) - 2 g + (omega1/alpha^2) g^2
    - (omega2/alpha^3) g^3``.  All real roots are located by bracketed
    bisection on the monotone intervals between critical points, then
    polished by Newton iteration.  The root count is reported so callers
    can see when the branch choice mattered.
    """
    for name, v in (("c", c), ("alpha", alpha), ("beta0", beta0),
                    ("beta", beta), ("omega1", omega1), ("omega2", omega2)):
        if not math.isfinite(v):
            raise InvalidParameterError(f"non-finite coefficient {name}={v!r}")
    if alpha <= 0.0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha!r}")
    if beta == 0.0:
        raise InvalidParameterError("beta must be nonzero")

    a0 = c - beta0 / beta
    a1 = -2.0
    a2 = omega1 / alpha**2
    a3 = -omega2 / alpha**3

    def poly(g):
        return a0 + g * (a1 + g * (a2 + g * a3))

    def dpoly(g):
        return a1 + g * (2.0 * a2 + g * 3.0 * a3)

    roots: list[float] = []
    if a3 == 0.0 and a2 == 0.0:
        # linear: -2 g + a0 = 0
        roots = [a0 / 2.0]
    elif a3 == 0.0:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            # numerically stable quadratic roots; a1 = -2 makes q >= 1
            q = -0.5 * (a1 + math.copysign(sq, a1))
            roots = [q / a2, a0 / q]
    else:
        # monotone intervals delimited by the critical points of the cubic
        bound = 1.0 + max(abs(a0), abs(a1), abs(a2)) / abs(a3)
        knots = [-bound, bound]
        cd = (2.0 * a2) ** 2 - 4.0 * (3.0 * a3) * a1
        if cd > 0.0:
            sq = math.sqrt(cd)
            k1 = (-2.0 * a2 - sq) / (2.0 * 3.0 * a3)
            k2 = (-2.0 * a2 + sq) / (2.0 * 3.0 * a3)
            knots = sorted(knots + [k1, k2])
        for lo, hi in zip(knots[:-1], knots[1:]):
            flo, fhi = poly(lo), poly(hi)
            if flo == 0.0:
                roots.append(lo)
                continue
            if (flo < 0) != (fhi < 0):
                roots.append(_bisect(poly, lo, hi))
        if poly(knots[-1]) == 0.0:
            roots.append(knots[-1])

    roots = [_polish_newton(poly, dpoly, r) for r in roots]
    # collapse duplicates from shared interval endpoints
    uniq: list[float] = []
    for r in sorted(roots):
        if not uniq or abs(r - uniq[-1]) > 1e-9 * (1.0 + abs(r)):
            uniq.append(r)
    if not uniq:
        raise InvalidParameterError("gamma polynomial has no real root")
    best = min(uniq, key=abs)
    return CubicRoot(value=best, n_real_roots=len(uniq), residual=poly(best))


def derive_coefficients(omega: float) -> ModelParams:
    """Derive the full coefficient set from the rotation speed.

    Pure and deterministic; ``omega = 0`` reduces to the classical
    Camassa-Holm coefficients (c1, c2, c3) = (1, 0, 0).
    """
    if not math.isfinite(omega):
        raise InvalidParameterError(f"omega must be finite, got {omega!r}")
    c = math.sqrt(1.0 + omega * omega) - omega
    c2_ = c * c
    alpha = c2_ / (1.0 + c2_)
    denom2 = 6.0 * (c2_ + 1.0) ** 2
    beta0 = c * (c2_**2 + 6.0 * c2_ - 1.0) / denom2
    beta = (3.0 * c2_**2 + 8.0 * c2_ - 1.0) / denom2
    omega1 = -3.0 * c * (c2_ - 1.0) * (c2_ - 2.0) / (2.0 * (c2_ + 1.0) ** 3)
    omega2 = ((c2_ - 1.0) ** 2 * (c2_ - 2.0) * (8.0 * c2_ - 1.0)
              / (2.0 * (c2_ + 1.0) ** 5))
    root = solve_gamma_cubic(c, alpha, beta0, beta, omega1, omega2)
    gamma = root.value
    c0 = beta0 / beta - gamma
    c1 = 1.0 + 3.0 * gamma**2 * omega2 / (2.0 * alpha**3) - omega1 * gamma / alpha**2
    c2 = omega1 / (3.0 * alpha**2) - omega2 * gamma / alpha**3
    c3 = omega2 / (4.0 * alpha**3)
    return ModelParams(omega=omega, c=c, alpha=alpha, beta0=beta0, beta=beta,
                       omega1=omega1, omega2=omega2, gamma=gamma,
                       c0=c0, c1=c1, c2=c2, c3=c3)
