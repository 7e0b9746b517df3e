"""The numpy CSR type against scipy.sparse, the reference it replaces."""

import random

import numpy as np
import pytest
import scipy.sparse as sp

from simcol import sparse
from simcol.sparse import Csr


def random_coo(seed, n_rows, n_cols, nnz, dtype):
    """Triplets with repeated positions, one position whose entries sum
    to zero, and (n_rows > 3) rows 0 and 3 left empty."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, nnz)
    if n_rows > 3:
        rows[(rows == 0) | (rows == 3)] = 1
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.integers(-5, 6, nnz)
    # repeat a few positions, and cancel the first one's sum to a stored zero
    rows, cols, vals = np.r_[rows, rows[:4]], np.r_[cols, cols[:4]], np.r_[vals, vals[:4]]
    total = vals[(rows == rows[0]) & (cols == cols[0])].sum()
    return np.r_[rows, rows[0]], np.r_[cols, cols[0]], np.r_[vals, -total].astype(dtype)


def reference(rows, cols, vals, shape):
    ref = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    ref.sum_duplicates()
    return ref


def assert_same(A: Csr, ref) -> None:
    assert A.shape == ref.shape
    for part in ("data", "indices", "indptr"):
        got, want = getattr(A, part), getattr(ref, part)
        assert got.dtype.kind == want.dtype.kind, part
        assert got.tolist() == want.tolist(), part


CASES = [(seed, shape, nnz) for seed in range(4)
         for shape, nnz in (((7, 7), 20), ((40, 40), 300), ((30, 50), 200), ((1, 1), 3))]


@pytest.mark.parametrize("seed, shape, nnz", CASES)
def test_from_coo_sums_repeats_and_keeps_zeros(seed, shape, nnz):
    rows, cols, vals = random_coo(seed, *shape, nnz, np.int64)
    A = Csr.from_coo(rows, cols, vals, shape)
    ref = reference(rows, cols, vals, shape)
    assert_same(A, ref)
    assert A.nnz == ref.nnz
    if shape[0] > 3:
        assert A.indptr[1] == A.indptr[0] and A.indptr[4] == A.indptr[3]
    assert (A.data == 0).any()  # the cancelled position stays stored


def test_from_coo_of_nothing():
    A = Csr.from_coo(np.zeros(0, int), np.zeros(0, int), np.zeros(0, np.int64), (3, 2))
    assert A.nnz == 0 and A.indptr.tolist() == [0, 0, 0, 0]
    assert A.sum(axis=1).tolist() == [0, 0, 0]
    assert A.T.shape == (2, 3) and A.dot(np.ones(2)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("seed, shape, nnz", CASES)
def test_transpose_row_sums_diagonal(seed, shape, nnz):
    rows, cols, vals = random_coo(seed, *shape, nnz, np.int64)
    A = Csr.from_coo(rows, cols, vals, shape)
    ref = reference(rows, cols, vals, shape)
    assert_same(A.T, ref.T.tocsr())
    assert A.sum(axis=1).tolist() == np.asarray(ref.sum(axis=1)).ravel().tolist()
    assert A.diagonal().tolist() == ref.diagonal().tolist()
    F = Csr(A.data / 7, A.indices, A.indptr, A.shape)
    fref = sp.csr_matrix((ref.data / 7, ref.indices, ref.indptr), shape=shape)
    assert F.sum(axis=1).tolist() == np.asarray(fref.sum(axis=1)).ravel().tolist()


@pytest.mark.parametrize("seed", range(4))
def test_submatrix_drops_zeros(seed):
    n = 40
    rows, cols, vals = random_coo(seed, n, n, 300, np.int64)
    A = Csr.from_coo(rows, cols, vals, (n, n))
    keep = np.flatnonzero(np.random.default_rng(seed).random(n) < 0.6)
    ref = reference(rows, cols, vals, (n, n))[keep][:, keep]
    ref.eliminate_zeros()
    B = A.submatrix(keep)
    assert_same(B, ref)
    assert (B.data != 0).all()


@pytest.mark.parametrize("seed, shape, nnz", CASES)
@pytest.mark.parametrize("r", [None, 1, 3, 40])
def test_product_bit_for_bit(seed, shape, nnz, r, monkeypatch):
    # float entries far from dyadic, so that any change in the order of
    # a row's sum shows in the last bits; a tight term budget makes the
    # wide products go through in column chunks
    monkeypatch.setattr(sparse, "_TERMS", 64)
    rows, cols, vals = random_coo(seed, *shape, nnz, np.int64)
    A = Csr.from_coo(rows, cols, vals, shape)
    F = Csr(A.data / 3.7, A.indices, A.indptr, A.shape)
    ref = sp.csr_matrix((F.data, F.indices, F.indptr), shape=shape)
    rng = np.random.default_rng(seed)
    x = rng.random(shape[1]) if r is None else rng.random((shape[1], r)) - 0.3
    got, want = F.dot(x), ref.dot(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, nnz", [((40, 40), 300), ((30, 50), 200)])
@pytest.mark.parametrize("r", [None, 1, 3])
@pytest.mark.parametrize("terms", [sparse._TERMS, 8])
def test_exact_product_on_python_ints(shape, nnz, r, terms, monkeypatch):
    # operands past 2^63, where an int64 or float64 step would show; a tight
    # term budget changes nothing, as exact columns go one at a time
    monkeypatch.setattr(sparse, "_TERMS", terms)
    rows, cols, vals = random_coo(nnz, *shape, nnz, np.int64)
    A = Csr.from_coo(rows, cols, vals, shape)
    rng = random.Random(nnz)
    x = np.array([rng.randrange(-2 ** 80, 2 ** 80) for _ in range(shape[1] * (r or 1))],
                 dtype=object).reshape((shape[1],) if r is None else (shape[1], r))
    got = A.dot(x)
    assert got.dtype == object and got.shape == (shape[0], *x.shape[1:])
    xs = x.reshape(shape[1], -1).tolist()
    data, indices, indptr = A.data.tolist(), A.indices.tolist(), A.indptr.tolist()
    want = [[sum(data[p] * xs[indices[p]][j] for p in range(indptr[i], indptr[i + 1]))
             for j in range(r or 1)] for i in range(shape[0])]
    assert got.reshape(shape[0], -1).tolist() == want
    assert max(abs(v) for row in want for v in row) > 2 ** 63


def test_product_over_skewed_rows():
    # one long row among short ones: every row is padded to the long one,
    # and the padding must leave each short row's sum as scipy takes it
    n = 60
    rows = np.r_[np.zeros(n, int), np.arange(1, n), np.arange(2, n)]
    cols = np.r_[np.arange(n), np.arange(n - 1), np.arange(n - 2)]
    rng = np.random.default_rng(7)
    vals = rng.random(len(rows))
    A = Csr.from_coo(rows, cols, vals, (n, n))
    x = rng.random((n, 5))
    want = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).dot(x)
    assert A.dot(x).tobytes() == want.tobytes()


def test_column_sums_are_refused():
    A = Csr.from_coo([0, 1], [1, 0], [2.0, 3.0], (2, 2))
    with pytest.raises(ValueError, match=r"^only row sums \(axis=1\)$"):
        A.sum(axis=0)


def test_copy_is_deep():
    A = Csr.from_coo([0, 1], [1, 0], [2.0, 3.0], (2, 2))
    B = A.copy()
    B.data[0] += 1
    assert A.data.tolist() == [2.0, 3.0] and B.data.tolist() == [3.0, 3.0]
