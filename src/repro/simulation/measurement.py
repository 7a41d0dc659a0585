"""Exact zero-delay switched-capacitance measurement.

The zero-delay energy of one lane in one clock cycle is the capacitance-
weighted number of nets whose settled value changed.  Every zero-delay entry
point computes it with the one formula defined here.  That covers the numpy
engine's ``step_and_measure_lanes`` and ``step_and_measure`` and the big-int
oracle's.  So a lane's value does not depend on the backend, the counting
kernel, the lane subset or the shard partition:

1. at engine construction the nets are grouped by distinct capacitance value
   (:class:`CapacitanceClasses`);
2. each cycle yields exact integer toggle counts per (class, lane);
3. one fixed-order float sum over the classes turns counts into energy:
   ``e = 0; for c: e += cap_c * count_c``.

Step 3 is elementwise arithmetic in a fixed order (``np.add.accumulate``
over the class axis), not a BLAS reduction, which may reassociate the sum
differently for different widths.

Step 2 has two implementations.  Both are exact integer counts, so their
results are bit-identical:

* ``zd_count_lanes`` in the generic compiled kernel
  (:mod:`repro.simulation._native`) walks the set bits of the transition
  words of the requested lanes, so its cost scales with toggles;
* the numpy fallback unpacks the class-sorted transition rows and sums each
  class's rows with ``np.add.reduceat``.

Callers that keep only some lanes ask for the first ``lanes`` of them (the
interval selection of the estimator keeps chain 0 alone); the state still
advances for every lane.  The count matrix is classes x lanes.  With the
built-in capacitance model a circuit has a dozen or so classes; a model with
one distinct capacitance per net makes it nets x lanes and step 3 one pass
per net.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation import _native
from repro.utils.bitpack import words_per_width

__all__ = ["CapacitanceClasses", "resolve_lanes"]


def resolve_lanes(lanes: int | None, width: int) -> int:
    """Number of leading lanes to measure: ``None`` means all *width* lanes."""
    if lanes is None:
        return width
    if not 1 <= lanes <= width:
        raise ValueError(f"lanes must be between 1 and the width {width}, got {lanes}")
    return int(lanes)


class CapacitanceClasses:
    """The nets of one engine grouped by distinct capacitance value.

    Parameters
    ----------
    node_capacitance:
        Per-net capacitance (one entry per net).
    """

    def __init__(self, node_capacitance: Sequence[float] | np.ndarray):
        caps = np.asarray(node_capacitance, dtype=np.float64).reshape(-1)
        values, net_class = np.unique(caps, return_inverse=True)
        #: Distinct capacitance values, ascending: the class order of the sum.
        self.values = values
        #: Class index of every net.
        self.net_class = np.ascontiguousarray(net_class.reshape(-1), dtype=np.int64)
        self.num_classes = int(values.size)
        self.num_nets = int(caps.size)
        self._order = np.argsort(self.net_class, kind="stable")
        self._starts = np.searchsorted(self.net_class[self._order], np.arange(self.num_classes))
        self._net_class_ptr = self.net_class.ctypes.data

    def count_lanes(self, diff: np.ndarray, lanes: int) -> np.ndarray:
        """Toggle counts per (class, lane) of the first *lanes* lanes of *diff*.

        *diff* is the ``(num_nets, num_words)`` uint64 XOR of two settled
        states; the result is a ``(num_classes, lanes)`` uint32 matrix.  The
        compiled kernel is loaded on the first call, so engines that never
        count lanes this way never load it.
        """
        kernel = _native.load_kernel()
        if kernel is None:
            return self._count_lanes_numpy(diff, lanes)
        diff = np.ascontiguousarray(diff, dtype=np.uint64)
        counts = np.zeros((self.num_classes, lanes), dtype=np.uint32)
        kernel.zd_count_lanes(
            diff.ctypes.data,
            self.num_nets,
            diff.shape[1],
            lanes,
            self._net_class_ptr,
            counts.ctypes.data,
        )
        return counts

    def _count_lanes_numpy(self, diff: np.ndarray, lanes: int) -> np.ndarray:
        rows = diff[self._order, : words_per_width(lanes)]
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :lanes]
        return np.add.reduceat(bits, self._starts, axis=0, dtype=np.uint32)

    def count_total(self, toggles_per_net: np.ndarray) -> np.ndarray:
        """Lane-summed toggle counts per class, shape ``(num_classes, 1)``.

        *toggles_per_net* holds each net's toggle count summed over lanes;
        the per-class sums are exact (integers far below 2**53).
        """
        totals = np.bincount(self.net_class, weights=toggles_per_net, minlength=self.num_classes)
        return totals[:, None]

    def energy(self, counts) -> np.ndarray:
        """Switched capacitance of every lane from its per-class toggle counts.

        ``counts`` has shape ``(num_classes, lanes)``.  The classes are summed
        in a fixed order, ``e = 0; for c: e += cap_c * count_c``, elementwise
        over the lanes, so each lane's value depends on its own counts only.
        """
        products = self.values[:, None] * np.asarray(counts)
        return np.add.accumulate(products, axis=0)[-1]

