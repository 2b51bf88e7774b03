"""Flat-vector view over a graph's trainable parameters.

The optimizer works on one contiguous double vector; this maps between that
vector, the per-vertex parameter tensors, and the groups of a partition.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import ComputationGraph
from .partition import GroupTable, ZeroInvariantGroup


class ParamIndex:
    def __init__(self, g: ComputationGraph):
        self._layout: dict[tuple[int, str], tuple[int, tuple[int, ...]]] = {}
        offset = 0
        for vid in sorted(g.vertices):
            params = g.vertices[vid].params
            if params is None:
                continue
            for role, arr in params.trainable_items():
                self._layout[(vid, role)] = (offset, arr.shape)
                offset += arr.size
        self.size = offset
        self._groups = (None, None, None)  # (table, idx, off) of the last table

    def gather(self, g: ComputationGraph) -> np.ndarray:
        vec = np.empty(self.size)
        for (vid, role), (off, shape) in self._layout.items():
            arr = getattr(g.vertices[vid].params, role)
            vec[off:off + arr.size] = arr.ravel()
        return vec

    def scatter(self, g: ComputationGraph, vec: np.ndarray) -> None:
        for (vid, role), (off, shape) in self._layout.items():
            size = int(np.prod(shape))
            setattr(g.vertices[vid].params, role,
                    vec[off:off + size].reshape(shape).copy())

    def gather_grads(self, grads: dict[int, dict[str, np.ndarray]]) -> np.ndarray:
        vec = np.zeros(self.size)
        for (vid, role), (off, shape) in self._layout.items():
            arr = grads.get(vid, {}).get(role)
            if arr is not None:
                vec[off:off + arr.size] = arr.ravel()
        return vec

    def group_table(self, table: GroupTable) -> tuple[np.ndarray, list[int]]:
        """All groups' flat indices in CSR form: group p's are
        ``idx[off[p]:off[p + 1]]``, ordered as its slices are.

        One array pass over the table's rows and this layout: each owned
        row contributes ``prod(shape[1:])`` consecutive indices per role
        (``np.repeat`` and ``cumsum`` expand them), and a stable sort by
        owner keeps the (vertex, role, row) order within each group. Kept
        for the last table asked about; ``idx`` is read-only.
        """
        if self._groups[0] is not table:
            starts, sizes, owners = ([np.empty(0, dtype=np.intp)] for _ in range(3))
            for vid, rows, roles in table.grouped:
                for role in roles:
                    off, shape = self._layout[(vid, role)]
                    width = math.prod(shape[1:])  # doubles per row
                    starts.append(off + width * np.arange(len(rows)))
                    sizes.append(np.full(len(rows), width))
                    owners.append(rows)
            owner = np.concatenate(owners)
            order = np.argsort(owner, kind="stable")[np.count_nonzero(owner < 0):]
            start, size = np.concatenate(starts)[order], np.concatenate(sizes)[order]
            ends = np.cumsum(size)
            idx = np.arange(size.sum()) + np.repeat(start - ends + size, size)
            idx.flags.writeable = False
            first = np.searchsorted(owner[order], np.arange(table.size + 1))
            off = np.concatenate(([0], ends))[first].tolist()
            self._groups = (table, idx, off)
        return self._groups[1], self._groups[2]

    def group_indices(self, group: ZeroInvariantGroup) -> np.ndarray:
        """Flat indices of one group's parameters: a view into ``group_table``."""
        table, idx, off = self._groups
        if table is not group.table:
            idx, off = self.group_table(group.table)
        p = group.position
        return idx[off[p]:off[p + 1]]
