"""One flat buffer owns a graph's trainable parameters.

``ParamIndex(g)`` copies g's trainable arrays once into the double vector
``x`` (vertices by id, each vertex's arrays in ``TRAINABLE_ROLES`` order)
and rebinds every array as a view into it, so writing ``x`` writes the
graph. It also maps the groups of a partition to indices into ``x``.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import ComputationGraph
from .partition import GroupTable, ZeroInvariantGroup


class ParamIndex:
    def __init__(self, g: ComputationGraph):
        arrays = [(vid, role, arr) for vid in sorted(g.vertices)
                  if g.vertices[vid].params is not None
                  for role, arr in g.vertices[vid].params.trainable_items()]
        self.size = sum(arr.size for _, _, arr in arrays)
        self.x = np.empty(self.size)
        self._layout: dict[tuple[int, str], tuple[int, tuple[int, ...]]] = {}
        offset = 0
        for vid, role, arr in arrays:
            view = self.x[offset:offset + arr.size].reshape(arr.shape)
            view[...] = arr
            setattr(g.vertices[vid].params, role, view)
            self._layout[(vid, role)] = (offset, arr.shape)
            offset += arr.size
        self._groups = (None, None, None)  # (table, idx, off) of the last table

    def _check_bound(self, g: ComputationGraph) -> None:
        """Raise unless g's first array is still a view into ``x``; it is
        not once a later ``ParamIndex`` of g has taken the arrays over."""
        vid, role = next(iter(self._layout), (None, None))
        if role and getattr(g.vertices[vid].params, role).base is not self.x:
            raise ValueError("the graph's parameters are not views into this index's "
                             "buffer: a later ParamIndex of the graph took them over")

    def gather(self, g: ComputationGraph) -> np.ndarray:
        self._check_bound(g)
        return self.x.copy()

    def scatter(self, g: ComputationGraph, vec: np.ndarray) -> None:
        self._check_bound(g)
        self.x[...] = vec

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
