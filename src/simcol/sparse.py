"""A canonical compressed-sparse-row matrix on numpy, for the exact kernels.

`Csr` holds `data`, `indices` and `indptr` as scipy's csr_matrix does,
always in canonical form: within each row the column indices ascend and
none repeats.  A stored zero is allowed.  It has only what the oracle
and the readers of its kernels use: building from COO triplets, row
sums, the diagonal, the principal submatrix with zeros dropped, the
transpose, and the product with a dense matrix, in float64 or exactly on
Python ints.  Each float sum is taken in scipy's order, so the two agree
bit for bit: a row sum by numpy's `add.reduceat` over the row, a product
one term at a time in stored order, over every row padded to the longest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Csr:
    """Row i's entries are data[indptr[i]:indptr[i + 1]], in the columns
    indices[indptr[i]:indptr[i + 1]], ascending."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> Csr:
        """The matrix with vals[e] at (rows[e], cols[e]), repeated
        positions summed; a zero sum stays stored."""
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
        key = np.multiply(rows, shape[1], dtype=np.int64)
        key += cols
        # a stable sort: the kernel's triplets arrive as ascending runs
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        data = np.add.reduceat(vals[order], starts) if len(starts) else vals[:0]
        at = order[starts]
        return cls(data, cols[at].astype(np.intp, copy=False), _indptr(rows[at], shape[0]),
                   shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def copy(self) -> Csr:
        return Csr(self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape)

    def sum(self, axis: int = 1) -> np.ndarray:
        """Row sums (only axis=1), by `add.reduceat` over the nonempty rows."""
        if axis != 1:
            raise ValueError("only row sums (axis=1)")
        out = np.zeros(self.shape[0], dtype=self.data.dtype)
        rows = np.flatnonzero(np.diff(self.indptr))
        if len(rows):
            out[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.shape), dtype=self.data.dtype)
        on = self.indices == self.row_ids
        out[self.row_ids[on]] = self.data[on]
        return out

    def submatrix(self, keep: np.ndarray) -> Csr:
        """Rows and columns keep (ascending indices) of a square matrix,
        stored zeros dropped."""
        pos = np.full(self.shape[0], -1, dtype=np.intp)
        pos[keep] = np.arange(len(keep))
        rows, cols = pos[self.row_ids], pos[self.indices]
        sel = (rows >= 0) & (cols >= 0) & (self.data != 0)
        n = len(keep)
        return Csr(self.data[sel], cols[sel], _indptr(rows[sel], n), (n, n))

    @property
    def T(self) -> Csr:
        # entries in stored order are row-major: a stable sort by column
        # keeps each column's rows ascending; numpy radix-sorts 16-bit keys
        cols = self.indices.astype(np.uint16) if self.shape[1] <= 1 << 16 else self.indices
        order = np.argsort(cols, kind="stable")
        return Csr(self.data[order], self.row_ids[order], _indptr(self.indices, self.shape[1]),
                   self.shape[::-1])

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a dense (n,) or (n, r) x, summed as scipy sums it:
        each output starts from 0 and adds its row's products in stored
        order, one at a time, then its padding's zeros.  In float64, or
        exactly when x holds Python ints (dtype object)."""
        x = np.asarray(x)
        if x.dtype != object:
            x = x.astype(np.float64, copy=False)
        cols = x.reshape(len(x), -1)
        r = cols.shape[1]
        out = np.empty((self.shape[0], r), dtype=x.dtype)
        # as many float columns at a time as keep the padded terms within
        # _TERMS; one exact column, whose terms may be big ints
        idx = self._layout[0]
        step = 1 if x.dtype == object else max(1, _TERMS // max(1, idx.size))
        for lo in range(0, r, step):
            w = min(step, r - lo)
            # the padding column reads row n: 0
            ext = np.zeros((self.shape[1] + 1, w), dtype=x.dtype)
            ext[:-1] = cols[:, lo:lo + w]
            terms = np.take(ext, idx, axis=0)
            terms *= self._values(w, x.dtype)
            # summed over positions from 0: a row's padded zeros leave it as is
            out[:, lo:lo + w] = np.add.reduce(terms, axis=0, initial=0)
        return out.reshape(self.shape[0], *x.shape[1:])

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """`dot`'s layout: (columns, values), position by row, every row
        padded to the longest with column n and value 0."""
        lens = np.diff(self.indptr)
        pos = np.arange(lens.max(initial=0))[:, None]
        on = pos < lens
        at = np.where(on, self.indptr[:-1] + pos, 0)
        return np.where(on, self.indices[at], self.shape[1]), np.where(on, self.data[at], 0)

    @cached_property
    def _widened(self) -> dict:
        return {}

    def _values(self, r: int, dtype: np.dtype) -> np.ndarray:
        """The layout's values in dtype, repeated across r columns, kept
        per (r, dtype): a product multiplies by them without broadcasting."""
        if (r, dtype) not in self._widened:
            vals = self._layout[1].astype(dtype, copy=False)
            self._widened[r, dtype] = np.repeat(vals[:, :, None], r, axis=2)
        return self._widened[r, dtype]


# the most padded terms `dot` holds at once, in float64s
_TERMS = 2 ** 18


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """The row pointer of n rows holding entries in the given rows, once
    the entries are sorted by row."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr
