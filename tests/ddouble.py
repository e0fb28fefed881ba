"""Double-double ("paired limb") arithmetic for cancellation-prone sums.

A value is represented by an unevaluated sum ``hi + lo`` of two IEEE
doubles with ``hi = fl(hi + lo)``, giving roughly 31-32 significant
decimal digits.  All kernels below are branch-free and work elementwise
on scalars or numpy arrays, so the same code serves both the scalar and
the vectorized 1F1 paths of ``tests/specfun.py``.

The error-free transformations (two_sum, two_prod with Dekker splitting)
follow the classic qd/Shewchuk constructions.  No fused multiply-add is
assumed.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# Digits carried by a double-double; used for loss certification.
DD_DIGITS = 31.0


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e = a + b."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def fast_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| (or a = 0)."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    c = _SPLITTER * a
    big = c - a
    hi = c - big
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: returns (p, e) with p = fl(a*b) and p + e = a*b."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(xh, xl, yh, yl):
    """Accurate double-double addition."""
    s1, s2 = two_sum(xh, yh)
    t1, t2 = two_sum(xl, yl)
    s2 = s2 + t1
    s1, s2 = fast_two_sum(s1, s2)
    s2 = s2 + t2
    return fast_two_sum(s1, s2)


def dd_sub(xh, xl, yh, yl):
    return dd_add(xh, xl, -yh, -yl)


def dd_mul(xh, xl, yh, yl):
    """Double-double multiplication."""
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return fast_two_sum(p, e)


def dd_mul_d(xh, xl, d):
    """Multiply a double-double by a plain double."""
    p, e = two_prod(xh, d)
    e = e + xl * d
    return fast_two_sum(p, e)


def dd_div(xh, xl, yh, yl):
    """Double-double division with two Newton corrections."""
    q1 = xh / yh
    th, tl = dd_mul_d(yh, yl, q1)
    rh, rl = dd_sub(xh, xl, th, tl)
    q2 = rh / yh
    th, tl = dd_mul_d(yh, yl, q2)
    rh, rl = dd_sub(rh, rl, th, tl)
    q3 = rh / yh
    qh, ql = fast_two_sum(q1, q2)
    return dd_add(qh, ql, q3, 0.0 * q3)


def dd_div_d(xh, xl, d):
    return dd_div(xh, xl, d, 0.0 * d)


def dd_sqrt(ah, al):
    """Double-double square root (one Newton step from a double seed).

    Requires a > 0.
    """
    r = np.sqrt(ah)
    # sqrt(a) ~ r + (a - r^2) / (2 r)
    ph, pl = two_prod(r, r)
    dh, dl = dd_sub(ah, al, ph, pl)
    corr = (dh + dl) / (2.0 * r)
    return fast_two_sum(r, corr)


class DDSum:
    """Compensated accumulator with cancellation-loss tracking.

    Accumulates double-double terms and records the sum of magnitudes, so
    the surviving precision of an alternating sum can be certified as
    roughly ``DD_DIGITS - log10(sum|t| / |sum t|)`` digits.
    """

    __slots__ = ("hi", "lo", "abs_sum")

    def __init__(self) -> None:
        self.hi = 0.0
        self.lo = 0.0
        self.abs_sum = 0.0

    def add(self, th: float, tl: float = 0.0) -> None:
        self.hi, self.lo = dd_add(self.hi, self.lo, th, tl)
        self.abs_sum += abs(th)

    def value(self) -> float:
        return self.hi

    def dd_value(self):
        return self.hi, self.lo

    def loss_digits(self) -> float:
        """Decimal digits lost to cancellation (0 when nothing cancelled)."""
        mag = abs(self.hi)
        if self.abs_sum == 0.0:
            return 0.0
        if mag == 0.0:
            return np.inf
        return max(0.0, float(np.log10(self.abs_sum / mag)))

    def surviving_digits(self) -> float:
        return DD_DIGITS - self.loss_digits()


# pi to double-double precision, then derived constants.
DD_PI = (3.141592653589793, 1.2246467991473532e-16)
DD_SQRT_PI = dd_sqrt(*DD_PI)
