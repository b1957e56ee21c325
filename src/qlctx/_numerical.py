"""The numerical stage of the realization search, in numpy: the stacked
orthogonality-plus-collinearity penalty and the batched L-BFGS minimizer
that descends it.

``qlctx.realizability`` imports this module only when a search reaches its
numerical stage, so a diagram decided by a proof or by an integer witness
runs without numpy.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from ._records import ByIdentity


def _apply_j(v: np.ndarray) -> np.ndarray:
    # multiplication by i in the stacked [re | im] representation
    d = v.shape[-1] // 2
    return np.concatenate([v[..., d:], -v[..., :d]], axis=-1)


def _penalty_parts(vm, orth_mask, t2, complex_space):
    """Overlap parts and penalty of stacked unit vectors ``vm`` (R, n, w).

    Returns c = Re<u, v>, s = Im<u, v> (None in real space), the active
    hinge mask, and each row's penalty.  A row's terms are added by
    ``math.fsum``, which rounds exactly, because a restart's result must
    not depend on which other restarts share its batch: numpy's
    ``m[:, mask].sum(axis=1)`` runs its inner loop down the batch axis
    and rounds differently for different R.
    """
    c = vm @ vm.transpose(0, 2, 1)
    m = c * c
    s = None
    if complex_space:
        s = vm @ _apply_j(vm).transpose(0, 2, 1)
        m += s * s
    excess = m - t2
    active = (excess > 0.0) & ~np.eye(len(orth_mask), dtype=bool)
    hinge = excess[active].tolist()
    ends = itertools.accumulate(np.count_nonzero(active, axis=(1, 2)).tolist())
    pens, start = [], 0
    for row, end in zip(m[:, orth_mask].tolist(), ends):
        pens.append(math.fsum(row + hinge[start:end]) / 2.0)
        start = end
    return c, s, active, np.array(pens)


def value_and_grad(x, orth_mask, t2, complex_space):
    """Penalties (R,) and gradients (R, N) of R stacked points (R, N), each
    the n vectors of the n × n ``orth_mask`` laid end to end."""
    xm = x.reshape(len(x), len(orth_mask), -1)
    norms = np.linalg.norm(xm, axis=2, keepdims=True)
    vm = xm / norms
    c, s, active, penalty = _penalty_parts(vm, orth_mask, t2, complex_space)
    omega = orth_mask.astype(float) + active
    gv = 2.0 * (omega * c) @ vm
    if complex_space:
        gv += 2.0 * (omega * s) @ _apply_j(vm)
    radial = np.sum(vm * gv, axis=2, keepdims=True)
    gx = (gv - radial * vm) / norms
    return penalty, gx.reshape(len(x), -1)


# L-BFGS: MEMORY is L-BFGS-B's default (Byrd, Lu, Nocedal and Zhu 1995) and
# SUFFICIENT_DECREASE its Armijo constant, here in a backtracking line search
# (Nocedal and Wright, Numerical Optimization, ch. 3); the iteration,
# evaluation and stopping limits are the ones this search has always run
# with.  A run also stops when an accepted step leaves f unchanged: that is
# L-BFGS-B's factr test with a tolerance below double spacing and without
# its absolute floor of 1, so a witness's penalty falls to ~1e-27.
MEMORY = 10
MAXITER = 2000
MAXFUN = 5000
GTOL = 1e-14
SUFFICIENT_DECREASE = 1e-3
LINE_SEARCH_EVALS = 20


class Minimum(ByIdentity, collections.namedtuple("Minimum", "x fun nit nfev")):
    """Where ``minimize`` stopped: every row's end point (R, N) and value
    (R,), and the iterations and function evaluations of all rows."""

    __slots__ = ()


def _line_search(x, f0, g0, d, step):
    """Backtracking (Armijo) search along ``d`` from trial step ``step``, as
    a generator: it yields each trial point and is sent its (f, grad).

    The first trial whose value and gradient are finite and whose value is
    at most f0 + SUFFICIENT_DECREASE * t * (g0 . d) is accepted; otherwise
    the step is halved.  Returns (x, f, g, evaluations), with x None when
    no step was accepted within LINE_SEARCH_EVALS evaluations.
    """
    dg0 = float(g0 @ d)
    t = step
    for evals in range(1, LINE_SEARCH_EVALS + 1):
        xt = x + t * d
        ft, gt = yield xt
        if (math.isfinite(ft) and ft <= f0 + SUFFICIENT_DECREASE * t * dg0
                and np.isfinite(gt).all()):
            return xt, ft, gt, evals
        t *= 0.5
    return None, f0, g0, LINE_SEARCH_EVALS


def _direction(g, pairs):
    """-H g by the L-BFGS two-loop recursion, with H0 = s'y / y'y from the
    newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _lbfgs(x):
    """One L-BFGS run from ``x`` as a generator: it yields each point to
    evaluate, is sent its (f, grad), and returns (x, f, nit, nfev)."""
    pairs: collections.deque = collections.deque(maxlen=MEMORY)
    nit = 0
    f, g = yield x
    nfev = 1
    while (nit < MAXITER and nfev < MAXFUN and math.isfinite(f)
           and np.max(np.abs(g)) > GTOL):
        d = _direction(g, pairs)
        if not float(g @ d) < 0.0:
            pairs.clear()
            d = -g
        step = 1.0 / float(np.linalg.norm(d)) if nit == 0 else 1.0
        x_new, f_new, g_new, evals = yield from _line_search(x, f, g, d, step)
        nfev += evals
        if x_new is None:
            break
        nit += 1
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * float(y @ y):
            pairs.append((s, y, 1.0 / sy))
        done = f_new == f
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x, f, nit, nfev


def minimize(fun, x0, args=()) -> Minimum:
    """Unconstrained L-BFGS minimization from each row of ``x0`` (R, N).

    ``fun(X, *args) -> (f, grad)`` evaluates stacked points X (K, N),
    returning values (K,) and gradients (K, N).  Each row runs its own
    limited-memory BFGS (Liu and Nocedal 1989) with MEMORY pairs and a
    backtracking line search (see ``_line_search``); every step, the points
    all running rows wait on are evaluated in one call of ``fun``, and a
    row leaves the batch when it stops.  The first trial step has length
    1; later ones are the full quasi-Newton step.  A row stops when a line
    search accepts no step, after MAXITER iterations, once MAXFUN
    evaluations are spent, when an accepted step leaves f unchanged, or
    when max |grad| <= GTOL.

    The result's ``x`` (R, N) and ``fun`` (R,) hold every row's end point;
    its ``nit`` and ``nfev`` are totals over the rows.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError("minimize takes one start per row of a 2-d array")
    runs = [_lbfgs(row) for row in x0]
    ends: list = [None] * len(runs)
    points = [next(run) for run in runs]
    live = list(range(len(runs)))
    # a zero row of the search's x divides by its norm; the line search
    # refuses the NaN that gives and halves the step
    with np.errstate(invalid="ignore", divide="ignore"):
        while live:
            f, g = fun(np.stack([points[i] for i in live]), *args)
            running = []
            for i, fi, gi in zip(live, f.tolist(), g):
                try:
                    # a copy, so the rows a run keeps do not pin the
                    # whole stacked gradient of an older step
                    points[i] = runs[i].send((fi, gi.copy()))
                    running.append(i)
                except StopIteration as stop:
                    ends[i] = stop.value
            live = running
    xs, fs, nits, nfevs = zip(*ends)
    return Minimum(np.array(xs), np.array(fs), sum(nits), sum(nfevs))
