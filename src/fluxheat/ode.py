"""The explicit Runge-Kutta 5(4) pair of Dormand and Prince, as scipy runs it.

``rk45(fun, t_span, y0, rtol, atol)`` is ``scipy.integrate.solve_ivp(fun,
t_span, y0, method="RK45", rtol=rtol, atol=atol, dense_output=True)`` for
t_span[0] < t_span[1]: the same Runge-Kutta step, error norm, step-size
controller, initial step and quartic dense output (Dormand and Prince,
J. Comput. Appl. Math. 6, 1980; Shampine, Math. Comp. 46, 1986).  The code
copies scipy's numpy expressions (``scipy.integrate._ivp``: ``rk.py``'s
``rk_step``, ``RungeKutta._step_impl`` and ``RkDenseOutput``, ``common.py``'s
``select_initial_step``, ``norm`` and ``OdeSolution``), calls included, so
numpy rounds every short dot product as it does under scipy (fused
multiply-adds where numpy uses them) and the solution keeps scipy's bits.
The copied code is scipy's, under its BSD 3-clause licence, reproduced below.

A step the controller cannot take (smaller than ten spacings of the doubles
at t) raises ArithmeticError where scipy reports ``success = False``.
"""

# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["rk45", "DenseSolution"]

SAFETY = 0.9  # multiplies the step the error asymptotics propose
MIN_FACTOR = 0.2  # smallest step decrease
MAX_FACTOR = 10  # largest step increase
_ERROR_EXPONENT = -1 / (4 + 1)  # the error estimator is of order 4

# The Butcher tableau, the error weights E (fourth- minus fifth-order) and
# the dense-output coefficients P (Shampine's optimum c_6), as scipy writes them.
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


class DenseSolution:
    """The solution between the accepted steps ``ts``: one quartic per step.

    At a step boundary the earlier step's quartic is read (scipy's
    ``OdeSolution`` with ``searchsorted(side="left")``); outside [ts[0],
    ts[-1]] the nearest step's quartic extrapolates.
    """

    def __init__(self, ts: np.ndarray, steps: list[tuple]):
        self.ts = ts
        self.steps = steps  # (t_old, h, y_old, Q) of each step

    def __call__(self, t: float) -> np.ndarray:
        t = np.asarray(t)
        ind = np.searchsorted(self.ts, t, side="left")
        t_old, h, y_old, Q = self.steps[min(max(ind - 1, 0), len(self.steps) - 1)]
        x = (t - t_old) / h
        p = np.tile(x, Q.shape[1])
        p = np.cumprod(p)
        y = h * np.dot(Q, p)
        y += y_old
        return y


def _norm(x):
    """RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """The first step size of Hairer, Norsett and Wanner (Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step from (t, y): (y_new, f_new), the stages in K."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def rk45(
    fun: Callable[[float, np.ndarray], object], t_span: tuple[float, float], y0,
    rtol: float, atol: float,
) -> DenseSolution:
    """Solve y' = fun(t, y), y(t_span[0]) = y0 on t_span by RK45; the dense solution.

    ``fun`` is called in scipy's order (the initial derivative, one trial
    step for the first step size, then six calls per attempted step), and
    anything it raises propagates.  ValueError for a span that does not run
    forwards or a y0 that is not finite; ArithmeticError where the step size
    falls below ten spacings of the doubles at t.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("rk45 integrates forwards: t_span[0] < t_span[1]")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a 1-dimensional array of finite values")

    def f_of(t, y):
        return np.asarray(fun(t, y), dtype=float)

    atol = np.asarray(atol)
    direction = np.sign(t_bound - t)
    f = f_of(t, y)
    h_abs = _initial_step(f_of, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((len(B) + 1, y.size))
    ts, steps = [t], []
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                raise ArithmeticError(
                    f"RK45 stopped at t = {t}: the step size fell below the spacing of the doubles"
                )
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(f_of, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                step_rejected = True
        steps.append((t, t_new - t, y, K.T.dot(P)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return DenseSolution(np.array(ts), steps)
