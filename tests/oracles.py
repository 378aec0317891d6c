"""Independent reference implementations used only by tests.

Everything here is written as plainly as possible (explicit loops, no
shared code with the package) so that agreement with the fast paths is
meaningful evidence of correctness.
"""

from __future__ import annotations

import math


def kernel_value(name: str, u: float) -> float:
    if name == "gaussian":
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if name == "onesided":
        return math.exp(u) if u <= 0.0 else 0.0
    if name == "beta":
        return (15.0 / 16.0) * (1.0 - u * u) ** 2 if abs(u) <= 1.0 else 0.0
    raise ValueError(name)


def uniform_value(width: float, u: float) -> float:
    """Flat kernel of total width on the half-open [-width/2, width/2)."""
    return 1.0 / width if -width / 2.0 <= u < width / 2.0 else 0.0


def naive_cv(times_left, dx, kernel, h: float, delta: float, t_l: float, t_u: float) -> float:
    """Dense leave-one-out CV value for one bandwidth, from its definition

        CV(h) = sum_{i: t_l <= t_i <= t_u} || dx_i dx_i'/delta - S_{-i} ||_F^2 * delta,
        S_{-i} = sum_{j != i} K((t_j - t_i)/h)/h dx_j dx_j',

    with ``kernel`` a callable u -> K(u).  Returns inf when every
    leave-one-out weight of every window row is zero.
    """
    n = len(dx)
    d = len(dx[0])
    total = 0.0
    any_weight = False
    for i in range(n):
        if not (t_l <= times_left[i] <= t_u):
            continue
        s = [[0.0 for _ in range(d)] for _ in range(d)]
        for j in range(n):
            if j == i:
                continue
            w = kernel((times_left[j] - times_left[i]) / h) / h
            if w != 0.0:
                any_weight = True
            for k in range(d):
                for l in range(d):
                    s[k][l] += w * dx[j][k] * dx[j][l]
        for k in range(d):
            for l in range(d):
                r = dx[i][k] * dx[i][l] / delta - s[k][l]
                total += r * r
    return total * delta if any_weight else math.inf


def naive_kcv(times_left, dx, kernel_name: str, h: float, tau: float):
    """Triple-loop kernel covariance estimate; returns a list of lists."""
    n = len(dx)
    d = len(dx[0])
    out = [[0.0 for _ in range(d)] for _ in range(d)]
    for i in range(n):
        w = kernel_value(kernel_name, (times_left[i] - tau) / h) / h
        for k in range(d):
            for l in range(d):
                out[k][l] += w * dx[i][k] * dx[i][l]
    return out


def naive_tkcv(times_left, dx, kernel_name, h, tau, cutoff, mode):
    """Triple-loop thresholded variant; cutoff is d * r(delta)."""
    n = len(dx)
    d = len(dx[0])
    out = [[0.0 for _ in range(d)] for _ in range(d)]
    for i in range(n):
        sq = sum(x * x for x in dx[i])
        stat = sq if mode == "squared-norm" else math.sqrt(sq)
        if stat > cutoff:
            continue
        w = kernel_value(kernel_name, (times_left[i] - tau) / h) / h
        for k in range(d):
            for l in range(d):
                out[k][l] += w * dx[i][k] * dx[i][l]
    return out


def exact_pwl_squared_integral(times, values) -> float:
    """Exact integral of f(t)^2 for f piecewise linear through the points.

    Per segment with endpoints a, b over width w the integral of the
    squared chord is w * (a*a + a*b + b*b) / 3.
    """
    total = 0.0
    for i in range(len(times) - 1):
        w = times[i + 1] - times[i]
        a, b = values[i], values[i + 1]
        total += w * (a * a + a * b + b * b) / 3.0
    return total


def naive_vech(m):
    d = len(m)
    out = []
    for c in range(d):
        for r in range(c, d):
            out.append(m[r][c])
    return out
