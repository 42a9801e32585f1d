"""Fundamental tensor, Cartan tensor and their partials via jet evaluation.

All blocks at a sample (x, v) come from a single jet evaluation of L with all
2n base/fiber directions seeded.  Conventions (0-based arrays, y = fiber):

    dL_dy[i]         = d L / dy_i
    dL_dx[k]         = d L / d x_k
    d2L_dydx[i, k]   = d^2 L / dy_i dx_k
    g[i, j]          = 1/2 d^2 L / dy_i dy_j
    C[i, j, k]       = 1/4 d^3 L / dy_i dy_j dy_k          (fully symmetric)
    dg_dx[i, j, k]   = d g_ij / d x_k
    dg_dy[i, j, k]   = d g_ij / d y_k  ( = 2 C[k, i, j] )
    dC_dx[i, j, k, l] = d C_ijk / d x_l
    dC_dy[i, j, k, l] = d C_ijk / d y_l                    (fully symmetric)
    d2g_dxdx[i, j, k, l] = d^2 g_ij / d x_k d x_l
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMetricError
from .jets import Jet, derivative_along, jet_space, record, seed

COND_LIMIT = 1e10


def _as_jet(value, space):
    return value if isinstance(value, Jet) else Jet.constant(space, float(value))


# Every block is an L-derivative with `fiber` y-slots then `base` x-slots,
# times a constant factor: (name, factor, fiber, base).
_BLOCKS = (
    ("dL_dy", 1.0, 1, 0),
    ("dL_dx", 1.0, 0, 1),
    ("d2L_dydx", 1.0, 1, 1),
    ("g", 0.5, 2, 0),
    ("dg_dx", 0.5, 2, 1),
    ("dg_dy", 0.5, 3, 0),
    ("C", 0.25, 3, 0),
    ("d2g_dxdx", 0.5, 2, 2),
    ("dC_dx", 0.25, 3, 1),
    ("dC_dy", 0.25, 4, 0),
)


@lru_cache(maxsize=None)
def _block_gather(n, order, names=None):
    """(name, positions, scales) for every block an L jet of `order` over
    (x, y) holds, or for those in `names`: `coeffs[positions] * scales` is
    the block."""
    tables = jet_space(2 * n, order).partial_tables
    x, y = slice(n), slice(n, 2 * n)
    out = []
    for name, factor, fiber, base in _BLOCKS:
        k = fiber + base
        if k > order or (names is not None and name not in names):
            continue
        pos, scale = (a[(y,) * fiber + (x,) * base] for a in tables[k])
        out.append((name, np.ascontiguousarray(pos), factor * scale))
    return tuple(out)


def _gather_blocks(c, order, n, names=None):
    """Every block held by the coefficients `c` of an L jet of `order`, or
    those in the tuple `names` (see `_block_gather`), by name."""
    table = _block_gather(n, order, names)
    return {name: c[pos] * scale for name, pos, scale in table}


@dataclass(frozen=True)
class SampleBlocks:
    """Derivative blocks of L at one sample, extracted from one jet."""

    x: np.ndarray
    v: np.ndarray
    order: int
    L: float
    dL_dy: np.ndarray
    g: np.ndarray
    dL_dx: np.ndarray
    d2L_dydx: np.ndarray
    dg_dx: np.ndarray = None
    dg_dy: np.ndarray = None
    C: np.ndarray = None
    d2g_dxdx: np.ndarray = None
    dC_dx: np.ndarray = None
    dC_dy: np.ndarray = None


# metric.func -> {jet space: the Program that replays func there, or None
# where func is evaluated eagerly}; an entry goes with its function.
_PROGRAMS = weakref.WeakKeyDictionary()


def _L_jet(metric, x, v, order):
    """The domain check, then L as a jet of `order` with all 2n directions
    seeded (x in slots 0..n-1, v in n..2n-1) from one coefficient array.

    The first call for a function and space records L while evaluating it
    (see `jets.record`); later calls replay the recording, or evaluate
    eagerly where the function does not replay."""
    metric.check_sample(x, v)
    n = metric.dim
    space = jet_space(2 * n, order)
    rows = space.seed_units.copy()
    rows[:n, 0] = x
    rows[n:, 0] = v
    try:
        programs = _PROGRAMS.setdefault(metric.func, {})
    except TypeError:  # a callable that takes no weak reference stays eager
        programs = {space: None}
    program = programs.get(space)
    if program is not None:
        return program.run(rows)
    if space in programs:
        seeds = seed(rows[:, 0], order)
        out = metric.func(seeds[:n], seeds[n:])
    else:
        out, programs[space] = record(lambda seeds: metric.func(seeds[:n], seeds[n:]), space, rows)
    return _as_jet(out, space)


def metric_blocks(metric, x, v, order):
    """Evaluate L once with all 2n directions seeded and extract every block
    available at the requested order (2, 3 or 4)."""
    LJ = _L_jet(metric, x, v, order)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return SampleBlocks(x=x, v=v, order=order, L=LJ.value, **_gather_blocks(LJ.coeffs, order, metric.dim))


def _stepped_blocks(LJ, x, v, d, h):
    """The blocks one order below the L jet `LJ` at (x, v), stepped into the
    complex plane along d = (dx, dv): each block B is B + i h dB, with dB
    its exact derivative along d (see `jets.derivative_along`).  A function
    of the blocks built from analytic operations then carries its own
    derivative along d, as its imaginary part over h."""
    c, dc = derivative_along(LJ, d)
    c = c + 1j * h * dc
    n, order = len(x), LJ.space.order - 1
    return SampleBlocks(
        x=x + 1j * h * d[:n], v=v + 1j * h * d[n:], order=order, L=c[0], **_gather_blocks(c, order, n)
    )


def check_nondegenerate(g, context=""):
    context = " " + context if context else ""
    if not np.all(np.isfinite(g)):
        raise DegenerateMetricError(f"fundamental tensor is not finite{context}")
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DegenerateMetricError(
            f"fundamental tensor is numerically degenerate{context}"
            f" (condition number {cond:.3g}, det {np.linalg.det(g):.3g})"
        )


def fundamental_tensor(metric, sample):
    """g_v in the coordinate basis; refuses degenerate samples."""
    blocks = metric_blocks(metric, sample.x, sample.v, order=2)
    check_nondegenerate(blocks.g, f"at x={sample.x.tolist()}, v={sample.v.tolist()}")
    return blocks.g


def cartan_tensor(metric, sample):
    """C_v, the fully symmetric third fiber derivative of L / 4."""
    return metric_blocks(metric, sample.x, sample.v, order=3).C


def tensor_partials(metric, sample):
    """Base and fiber partials of g; dg_dy equals twice the Cartan tensor."""
    blocks = metric_blocks(metric, sample.x, sample.v, order=3)
    return {"dg_dx": blocks.dg_dx, "dg_dy": blocks.dg_dy}
