"""A large feature table loads block by block in the form layer 0 multiplies:
CSR when sparse, dense otherwise, with the same entries, bits and errors as a
parse of the whole table."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from jcgraph.graph import (FEATURE_BLOCK, SPARSE_DENSITY, SPARSE_MIN_SIZE, DatasetFormatError,
                           load_dataset, write_dataset)


def write_table(root, rows, n=None):
    """A dataset directory whose features.txt holds the token rows; n nodes
    (the row count unless given), one edge and a one-class split."""
    n = len(rows) if n is None else n
    d = len(rows[0])
    root.mkdir(exist_ok=True)
    (root / "graph.txt").write_text(f"{n} 1\n0 1\n")
    (root / "features.txt").write_text(f"{n} {d}\n" + "".join(" ".join(r) + "\n" for r in rows))
    (root / "labels.txt").write_text(f"{n} 1 s\n" + "0\n" * n)
    (root / "masks.txt").write_text("train: 0\nval: 1\ntest: 2\n")
    return root


def binary_rows(rng, n, d, density):
    return [["1" if v else "0" for v in row] for row in rng.random((n, d)) < density]


def dense_parse(root):
    """The table parsed whole, with the values float() gives each token."""
    lines = (root / "features.txt").read_text().split("\n")[1:-1]
    return np.array([[float(t) for t in line.split()] for line in lines])


def test_sparse_table_never_exists_dense(tmp_path):
    # 2000 x 500 binary entries at 5%: 8 MB as float64, four row blocks
    n, d = 2000, 500
    assert n * d >= 3 * FEATURE_BLOCK
    root = write_table(tmp_path / "ds", binary_rows(np.random.default_rng(0), n, d, 0.05))
    tracemalloc.start()
    try:
        x = load_dataset(root).features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.issparse(x)
    assert peak < n * d * 8


NONZERO = np.array(["0.5", "-1.25", "3", "1e-300", "-2.2250738585072014e-308", "5e-324",
                    "+7.5", "0.1", "-1.7976931348623157e308"])


def signed_zero_rows(rng, n, d, density):
    """Tokens of a table at about density nonzero, with zeros written 0, 0.0
    and -0.0, and a -0.0 in every row, so in the rows on each side of every
    block boundary."""
    zeros = rng.choice(np.array(["0", "0.0", "-0.0"]), size=(n, d))
    rows = np.where(rng.random((n, d)) < density, rng.choice(NONZERO, size=(n, d)), zeros)
    rows[np.arange(n), rng.integers(d, size=n)] = "-0.0"
    return rows.tolist()


def test_csr_table_has_the_entries_of_a_dense_parse(tmp_path):
    n, d = 3 * (FEATURE_BLOCK // 100) + 7, 100
    root = write_table(tmp_path / "ds", signed_zero_rows(np.random.default_rng(1), n, d, 0.1))
    x = load_dataset(root).features
    want = sp.csr_matrix(dense_parse(root))  # the entries != 0 in row-major order
    assert sp.issparse(x) and x.shape == (n, d)
    for name in ("data", "indices", "indptr"):
        got, expect = getattr(x, name), getattr(want, name)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), name


@pytest.mark.parametrize("dense_from", ["start", "later-block"])
def test_table_that_ends_dense_keeps_every_bit(tmp_path, dense_from):
    # sparse first blocks make the reader collect CSR blocks before the
    # nonzeros prove the table dense
    rng = np.random.default_rng(2)
    n, d = 2 * (FEATURE_BLOCK // 100) + 3, 100
    sparse_rows = FEATURE_BLOCK // 100 + 5 if dense_from == "later-block" else 0
    rows = (signed_zero_rows(rng, sparse_rows, d, 0.01) if sparse_rows else []) + \
        signed_zero_rows(rng, n - sparse_rows, d, 0.9)
    root = write_table(tmp_path / "ds", rows)
    x = load_dataset(root).features
    assert isinstance(x, np.ndarray)
    assert np.count_nonzero(x) / x.size > SPARSE_DENSITY
    assert x.view(np.int64).tobytes() == dense_parse(root).view(np.int64).tobytes()


def test_small_table_stays_dense(tmp_path):
    n, d = 100, SPARSE_MIN_SIZE // 100 - 1
    root = write_table(tmp_path / "ds", binary_rows(np.random.default_rng(3), n, d, 0.01))
    assert isinstance(load_dataset(root).features, np.ndarray)


N, D = 3 * (FEATURE_BLOCK // 100), 100
LINE = 2 + 2 * (FEATURE_BLOCK // 100) + 17  # a line of the third row block


# mutation of LINE -> the error load_dataset raises, as a parse of the whole table gives it
LATER_BLOCK_ERRORS = {
    "bad-token": (lambda toks: toks[:5] + ["x"] + toks[6:], f"{LINE}: expected numbers, got 'x'"),
    "short-row": (lambda toks: toks[:-1], f"{LINE}: expected {D} values, got {D - 1}"),
    "blank": (lambda toks: [], f"{LINE}: expected {D} values, got 0"),
}


@pytest.mark.parametrize("mutation", sorted(LATER_BLOCK_ERRORS) + ["truncated"])
def test_error_in_a_later_block_names_its_line(tmp_path, mutation):
    rows = binary_rows(np.random.default_rng(4), N, D, 0.05)
    rows[0][0] = "nan"  # non-finite values are reported after every parse error
    if mutation == "truncated":
        root = write_table(tmp_path / "ds", rows[:LINE - 2], n=N)
        path = root / "features.txt"
        path.write_text(path.read_text()[:-1])  # no newline after the last row
        error = f"{LINE}: expected {N} rows from line 2, file ends early"
    else:
        change, error = LATER_BLOCK_ERRORS[mutation]
        rows[LINE - 2] = change(rows[LINE - 2])
        root = write_table(tmp_path / "ds", rows)
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{root / 'features.txt'}:{error}") + "$"):
        load_dataset(root)


def test_non_finite_value_in_a_later_block(tmp_path):
    rows = binary_rows(np.random.default_rng(5), N, D, 0.05)
    rows[LINE - 2][3] = "inf"
    root = write_table(tmp_path / "ds", rows)
    with pytest.raises(DatasetFormatError,
                       match=rf"features.txt:{LINE}: non-finite feature value inf$"):
        load_dataset(root)


def test_csr_dataset_roundtrips(tmp_path):
    n, d = 2 * (FEATURE_BLOCK // 100) + 3, 100
    root = write_table(tmp_path / "a", signed_zero_rows(np.random.default_rng(6), n, d, 0.1))
    ds = load_dataset(root)
    assert sp.issparse(ds.features)
    write_dataset(tmp_path / "b", ds)
    back = load_dataset(tmp_path / "b")
    for name in ("data", "indices", "indptr"):
        assert getattr(back.features, name).tobytes() == getattr(ds.features, name).tobytes()
    assert back.graph.indices.tobytes() == ds.graph.indices.tobytes()
    assert back.labels.matrix.tobytes() == ds.labels.matrix.tobytes()
