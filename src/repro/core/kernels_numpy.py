"""NumPy kernel backend: closed-form vectorized burst folds.

No executor runs this backend: the product's one fold is
:class:`~repro.core.kernels.PythonKernelBackend`.  The module stays for the
fold-level rate probes of the end-to-end harness and its own tolerance
test (docs/DESIGN.md, "Transport").

The reference backend folds a run of ``k`` same-type events with ``k``
per-event Python loops over the armed windows.  Both fold recurrences have
closed forms over a run (the event's contribution vector varies per event,
everything positional is constant), so this backend replaces the ``O(k * W)``
Python work with a handful of ``O(W)``/``O(W * d)`` array operations:

* no Kleene self-loop — per event every window gains ``D = base + P`` (``P``
  the sum of its predecessor coefficients, constant during the run)::

      t_k = t_0 + k * D
      M_k = M_0 + k * P_m + outer(D, S1)          # S1 = sum of contributions

* Kleene self-loop — the recurrence ``t <- 2t + D`` doubles, so::

      t_k = 2^k * t_0 + (2^k - 1) * D
      M_k = 2^k * M_0 + (2^k - 1) * P_m + 2^(k-1) * (t_0 + D) (x) S1

  (``(x)`` the outer product over windows x measures — the ``np.matmul``
  shape of the burst fold).

Equivalence contract: the closed form *reassociates* floating-point sums,
so results match the reference backend bit-for-bit only while every
intermediate stays in the exactly-representable integer range of f64
(|value| < 2^53) and to relative tolerance ``1e-9`` beyond (the
fold-level tolerance test compares with exactly this).  Doubling runs
that overflow f64 saturate to ``inf`` on both backends; the ``_scaled``
guard keeps ``inf * 0`` from minting spurious NaNs where the reference
loop would keep an exact zero.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels import KernelBackend, MutableAggregate

__all__ = ["NumpyKernelBackend"]


def _pow2(count: int) -> float:
    """``2.0 ** count`` saturating to ``inf`` instead of overflowing."""
    return 2.0**count if count < 1024 else math.inf


def _scaled(factor: float, values: np.ndarray) -> np.ndarray:
    """``factor * values`` with ``factor=inf`` times exact zero staying zero.

    The reference loop doubles each window independently, so a window whose
    value is exactly ``0.0`` stays ``0.0`` forever; a plain ``inf * 0.0``
    would turn it into NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        product = factor * values
    return np.where(values == 0.0, 0.0, product)


class NumpyKernelBackend(KernelBackend):
    """Closed-form burst folds over contiguous coefficient columns."""

    def fold_scalar_run(self, total_map, indices, sources, base, count):
        if not indices:
            return 0
        self_loop = any(source is total_map for source in sources)
        window_count = len(indices)
        predecessors = np.zeros(window_count, dtype=np.float64)
        for source in sources:
            if source is total_map:
                continue
            get = source.get
            predecessors += np.fromiter(
                (get(index, 0.0) for index in indices),
                dtype=np.float64,
                count=window_count,
            )
        total_get = total_map.get
        initial = np.fromiter(
            (total_get(index, 0.0) for index in indices),
            dtype=np.float64,
            count=window_count,
        )
        per_event = predecessors + base
        if self_loop:
            pow2 = _pow2(count)
            folded = _scaled(pow2, initial) + _scaled(pow2 - 1.0, per_event)
        else:
            folded = initial + count * per_event
        created = 0
        for position, index in enumerate(indices):
            if index not in total_map:
                created += 1
            total_map[index] = float(folded[position])
        return created

    def fold_vector_run(
        self, total_map, indices, sources, base, contribution_rows, dimension
    ):
        if not indices:
            return 0
        self_loop = any(source is total_map for source in sources)
        window_count = len(indices)
        count = len(contribution_rows)
        pred_counts = np.zeros(window_count, dtype=np.float64)
        pred_measures = np.zeros((window_count, dimension), dtype=np.float64)
        for source in sources:
            if source is total_map:
                continue
            get = source.get
            for position, index in enumerate(indices):
                value = get(index)
                if value is not None:
                    pred_counts[position] += value.count
                    pred_measures[position] += value.measures
        initial_counts = np.zeros(window_count, dtype=np.float64)
        initial_measures = np.zeros((window_count, dimension), dtype=np.float64)
        total_get = total_map.get
        for position, index in enumerate(indices):
            value = total_get(index)
            if value is not None:
                initial_counts[position] = value.count
                initial_measures[position] = value.measures
        per_event = pred_counts + base
        contribution_sum = np.asarray(contribution_rows, dtype=np.float64).sum(axis=0)
        if self_loop:
            pow2 = _pow2(count)
            folded_counts = _scaled(pow2, initial_counts) + _scaled(
                pow2 - 1.0, per_event
            )
            outer_weight = _scaled(pow2 * 0.5, initial_counts + per_event)
            folded_measures = (
                _scaled(pow2, initial_measures)
                + _scaled(pow2 - 1.0, pred_measures)
                + _outer(outer_weight, contribution_sum)
            )
        else:
            folded_counts = initial_counts + count * per_event
            folded_measures = (
                initial_measures
                + count * pred_measures
                + _outer(per_event, contribution_sum)
            )
        created = 0
        for position, index in enumerate(indices):
            existing = total_map.get(index)
            if existing is None:
                existing = MutableAggregate(dimension)
                total_map[index] = existing
                created += 1
            existing.count = float(folded_counts[position])
            existing.measures = folded_measures[position].tolist()
        return created


def _outer(weights: np.ndarray, contributions: np.ndarray) -> np.ndarray:
    """Outer product that keeps ``inf * 0`` contributions at exact zero.

    The reference loop skips zero contributions entirely
    (:meth:`MutableAggregate.apply_contributions`), so a measure whose
    contribution is zero must stay untouched even when the window weight has
    saturated to ``inf``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        product = np.outer(weights, contributions)
    if np.isnan(product).any():
        product = np.where(
            (weights[:, None] == 0.0) | (contributions[None, :] == 0.0),
            0.0,
            product,
        )
    return product
