"""The joined solve in row blocks, and the early stop of a success trial.

With fewer targets than live columns, ``fitter._factor`` factors ``[A | rhs]``
over the grid's interleaved row blocks (``Grid.node_blocks``): each block is
written by one ``columns`` call on its own nodes, stacked under the running
``R`` and factored in place.  Given ``epsilon``, a trial stops after any block
but the last once its running part outside the span exceeds ``epsilon`` by
``fitter._STOP_MARGIN``.  These tests pin the layout, and hold the stop to a
decision-by-decision oracle: the same factorization with no ``epsilon``, and
the running part outside recomputed by ``np.linalg.qr`` on the rows of each
prefix of blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import UNIFORM_CUBE, DkDistribution, TrigPolynomial, tensor_gauss_grid
from widthlab import fitter
from widthlab.lowerbound import _weighted_hard, explicit_hard_function
from widthlab.quadrature import evaluate_on

_BASE_3D = {(1, 0, 0): 0.7, (0, 1, -1): -0.5, (-1, 1, 1): 0.4, (0, 0, 2): 0.3}


def _lb_explicit():
    """The benchmark's ``lb_explicit``: d = 4 on 12^4 nodes (six row blocks), ell = 2,
    epsilon 0.1, widths [1, 2, 4], 40 trials."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 4, 12)
    targets = _weighted_hard(explicit_hard_function(0.1, 2, 4), grid)
    return targets, grid, DkDistribution(k=2, dimension=4), 0.1, [1, 2, 4], 40, 8411


def _fit_curve():
    """A d = 3 ``fit_curve`` on 24^3 nodes (four row blocks) with both outcomes at its
    widest width: epsilon 0.5, widths [16, 64, 128], 12 trials."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 3, 24)
    norm = np.sqrt(sum(b * b for b in _BASE_3D.values()))
    f = TrigPolynomial({K: b / norm for K, b in _BASE_3D.items()})
    targets = fitter._weighted(evaluate_on(f, grid.nodes), grid.weights)
    return targets, grid, DkDistribution(k=2, dimension=3), 0.5, [16, 64, 128], 12, 5


def _running_outside(design, rhs, blocks):
    """``|R[w, w]|`` of ``np.linalg.qr([design | rhs])`` on the rows of blocks ``0..j``,
    for each ``j`` whose rows outnumber the ``w`` columns of ``design``."""
    w, nb = design.shape[1], len(blocks)
    rows, out = [], []
    for j in range(nb):
        rows.extend(range(j, len(rhs), nb))
        if len(rows) > w:
            R = np.linalg.qr(np.column_stack([design[rows], rhs[rows]]), mode="r")
            out.append((j, abs(R[w, w])))
    return out


@pytest.mark.parametrize("config", [_lb_explicit, _fit_curve],
                         ids=["lb_explicit", "fit_curve"])
def test_the_stop_never_changes_a_decision(config):
    """The factors with ``epsilon`` give every decision the factors without it give,
    at every width.  A trial that is not stopped keeps their bits.  A stopped trial
    keeps one nonzero entry, its running part outside, which exceeds ``epsilon``
    with the margin and is at most its part outside over the whole grid with the
    margin; it stops at the first block whose running part outside exceeds that,
    as ``np.linalg.qr`` on the rows so far gives it, and no trial that goes on past
    a block but the last exceeds it there."""
    targets, grid, dist, epsilon, widths, trials, seed = config()
    w = max(widths)
    draws = [fitter._draw(dist, w, seed, t) for t in range(trials)]
    full = fitter._Factors(dist, draws, grid, targets)
    early = fitter._Factors(dist, draws, grid, targets, epsilon)
    ids = np.arange(trials)
    decisions = []
    for r in widths:
        want = full.passes(ids, full.live[:, r], epsilon)
        assert np.array_equal(early.passes(ids, early.live[:, r], epsilon), want), r
        decisions.extend(want.tolist())
    if config is _fit_curve:
        assert True in decisions and False in decisions

    threshold = epsilon * (1 + fitter._STOP_MARGIN)
    blocks = grid.node_blocks
    stops = []
    for t in ids:
        count = int(full.live[t, w])
        W, b = draws[t]
        keep = full.mask[t]
        design = fitter._design_matrix(W[keep], b[keep], grid.nodes) * targets.root_w[:, None]
        # only the joined route, with more live columns than targets, runs in blocks
        joined = count > targets.rhs.shape[1]
        running = _running_outside(design, targets.rhs[:, 0], blocks) if joined else []
        # the running values after a block but the last; none sits at the threshold
        before_last = [(j, value) for j, value in running if j < len(blocks) - 1]
        assert all(abs(value - threshold) > 1e-9 * threshold for _, value in before_last)
        stop = next((j for j, value in before_last if value > threshold), None)
        if np.array_equal(early.C[t], full.C[t]):
            assert stop is None, t
            assert np.array_equal(early.R[t], full.R[t]) and np.array_equal(early.tails[t],
                                                                             full.tails[t])
            continue
        stops.append(stop)
        assert stop is not None, t
        kept = early.C[t, count, 0]
        assert np.count_nonzero(early.C[t]) == 1 and not np.any(early.R[t])
        assert threshold < abs(kept) <= abs(full.C[t, count, 0]) * (1 + fitter._STOP_MARGIN)
        assert_allclose(abs(kept), dict(running)[stop], rtol=1e-10, atol=0.0)
    if config is _lb_explicit:  # the explicit function fails each joined trial at block 0
        assert stops == [0] * np.count_nonzero(full.live[:, w] > 1) and len(stops) > trials // 2
    else:  # and some trials of the curve only at a later one
        assert stops and max(stops) > 0


@pytest.mark.parametrize("d, nodes", [(1, 24), (2, 24)])
@pytest.mark.parametrize("w, m", [(2, 1), (8, 1), (8, 3), (40, 1)])
def test_one_block_is_one_qr_of_the_whole_stack(d, nodes, w, m):
    """On ``fit_sweep``'s grids, 24 and 24^2 nodes, the joined factorization is one
    ``_qr_in_place`` of the whole weighted stack ``[A | rhs]``, bit for bit, with
    ``epsilon`` or without: the last block is never stopped."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, nodes)
    assert grid.node_blocks == (grid.column_major_nodes,)
    dist = DkDistribution(k=2, dimension=d)
    x = grid.nodes
    values = np.column_stack([np.cos(np.pi * (j + 1) * x.sum(axis=1)) for j in range(m)])
    targets = fitter._weighted(values, grid.weights)
    draws = tuple(map(np.stack, zip(*(fitter._draw(dist, w, 3, t) for t in range(5)))))
    stack = np.empty((5, w + m, len(x)))
    dist.columns(draws, grid.column_major_nodes, stack[:, :w])
    stack[:, :w] *= targets.root_w
    stack[:, w:] = targets.rhs.T
    whole = fitter._qr_in_place(stack, form_q=False)
    for epsilon in (None, 1e-3):
        R, C = fitter._factor(dist.columns, draws, 5, w, grid, targets, epsilon)
        assert np.array_equal(R, whole[:, :min(len(x), w), :w])
        assert np.array_equal(C, whole[:, :, w:])


@pytest.mark.parametrize("d, nodes", [(3, 24), (4, 12)])
def test_each_block_holds_its_rows_of_the_weighted_design(d, nodes, monkeypatch):
    """Past ``_SUM_ROWS`` nodes, block ``j`` of ``nb`` holds rows ``j::nb`` of the
    weighted ``_design_matrix`` and of the weighted target, bit for bit, under the
    running ``R`` of the blocks before it, at widths from 2 to 64; the residuals
    match lstsq's on the whole grid to 1e-13."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, nodes)
    blocks = grid.node_blocks
    nb = -(-len(grid.nodes) // fitter._SUM_ROWS)
    assert len(blocks) == nb > 1 and sum(map(len, blocks)) == len(grid.nodes)
    dist = DkDistribution(k=2, dimension=d)
    f = np.cos(np.pi * grid.nodes.sum(axis=1)) + grid.nodes[:, 0] ** 2
    targets = fitter._weighted(f, grid.weights)
    stacks, qr = [], fitter._qr_in_place

    def recording(stack, form_q):
        stacks.append(stack.copy())
        return qr(stack, form_q)

    monkeypatch.setattr(fitter, "_qr_in_place", recording)
    for w in (2, 3, 5, 8, 16, 33, 64):
        W, b = fitter._draw(dist, w, 9, 0)
        stacks.clear()
        R, C = fitter._factor(dist.columns, (W[None], b[None]), 1, w, grid, targets)
        design = fitter._design_matrix(W, b, grid.nodes) * targets.root_w[:, None]
        assert len(stacks) == nb
        running = np.zeros((0, w + 1))
        for j, stack in enumerate(stacks):
            top = len(running)
            assert stack.shape == (1, w + 1, top + len(blocks[j]))
            assert np.array_equal(stack[0, :, :top], running.T), (w, j)
            assert np.array_equal(stack[0, :w, top:].T, design[j::nb]), (w, j)
            assert np.array_equal(stack[0, w, top:], targets.rhs[j::nb, 0]), (w, j)
            running = qr(stack.copy(), form_q=False)[0]
        assert np.array_equal(np.column_stack([R[0], C[0, :w]]), running[:w, :])
        want = np.linalg.norm(design @ np.linalg.lstsq(design, targets.rhs, rcond=1e-10)[0]
                              - targets.rhs)
        got = fitter._solve_block(R, C[:, :w], np.sum(C[:, w:] ** 2, axis=1))
        assert_allclose(got[0, 0], want, rtol=0.0, atol=1e-13, err_msg=str(w))
