"""Shared test utilities: independent finite-difference gradient oracle."""

from __future__ import annotations

import dataclasses

import numpy as np

from mcan import model as md


def finite_difference(loss_fn, value, eps: float = 1e-5, indices=None) -> np.ndarray:
    """Central-difference gradient of ``loss_fn()`` w.r.t. entries of ``value.data``.

    ``loss_fn`` must re-run the forward pass from scratch each call.  Returns a
    dense array shaped like ``value.data``; when ``indices`` is given only those
    flat positions are probed (the rest stay zero).
    """
    flat = value.data.reshape(-1)
    grad = np.zeros_like(flat)
    probe = range(flat.size) if indices is None else indices
    for i in probe:
        original = flat[i]
        flat[i] = original + eps
        hi = float(loss_fn())
        flat[i] = original - eps
        lo = float(loss_fn())
        flat[i] = original
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(value.data.shape)


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray, indices=None) -> float:
    """Worst relative disagreement over the probed entries.

    Entries below 1e-5 in both gradients sit at the roundoff floor of a
    1e-5-step central difference, so they are held to an absolute 1e-6
    agreement instead of a relative one.
    """
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    probe = range(a.size) if indices is None else indices
    worst = 0.0
    for i in probe:
        if abs(a[i]) < 1e-5 and abs(n[i]) < 1e-5:
            if abs(a[i] - n[i]) > 1e-6:
                worst = max(worst, 1.0)
            continue
        err = abs(a[i] - n[i]) / max(abs(a[i]), abs(n[i]))
        worst = max(worst, err)
    return worst


def probe_indices(name, leaf, count, rng=None) -> list[int]:
    """Flat indices of ``leaf`` to probe by finite differences: ``count`` of
    them, or, of an LSTM cell's ``(4, H + in + 1, H)`` matrix (named
    ``*.w``), ``count`` in each gate's input rows, then in each gate's
    recurrent rows, then in each gate's bias row, so that every gate and row
    block is reached; in that order a seeded ``rng`` draws the entries it
    drew when the three blocks were separate leaves.  The indices are the
    first ones, or drawn by ``rng``."""
    def pick(size):
        if rng is None:
            return list(range(min(count, size)))
        return sorted(rng.choice(size, size=min(count, size), replace=False).tolist())

    if name.rsplit(".", 1)[-1] != "w":
        return pick(leaf.data.size)
    _, rows, hidden = leaf.data.shape
    blocks = [(hidden, rows - 1), (0, hidden), (rows - 1, rows)]  # input, recurrent, bias rows
    return [(k * rows + start) * hidden + i
            for start, stop in blocks for k in range(4) for i in pick((stop - start) * hidden)]


def group_input_arrays(gi, prefix=""):
    """``(name, array or None)`` for every input a ``GroupInputs`` holds, in
    its own order, so two assemblies can be compared bit for bit."""
    if dataclasses.is_dataclass(gi):
        items = ((f.name, getattr(gi, f.name)) for f in dataclasses.fields(gi))
    elif isinstance(gi, dict):
        items = gi.items()
    elif isinstance(gi, list):
        items = enumerate(gi)
    else:
        yield prefix, gi
        return
    for key, value in items:
        yield from group_input_arrays(value, f"{prefix}.{key}" if prefix else str(key))


def assert_same_group_inputs(a, b):
    """Same names, shapes, dtypes and bytes; None where the other is None."""
    pairs_a, pairs_b = list(group_input_arrays(a)), list(group_input_arrays(b))
    assert [n for n, _ in pairs_a] == [n for n, _ in pairs_b]
    for (name, x), (_, y) in zip(pairs_a, pairs_b):
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


def single_row(view, config, road=0, t=None, **replaced):
    """One sample of ``road`` (at its first eligible time unless ``t`` is
    given) as a B = 1 ``GroupInputs``, with the inputs in ``replaced``
    swapped in."""
    if t is None:
        t = int(md.eligible_times(view.dataset, config, road)[0])
    return dataclasses.replace(md.assemble_group(view, config, road, [t]), **replaced)
