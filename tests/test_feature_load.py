"""A large feature table loads block by block in the form layer 0 multiplies:
CSR when sparse, dense otherwise, with the same entries, bits and errors as a
parse of the whole table, whether its one-digit tokens are read from the
file's bytes or any other table is parsed as text."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jcgraph.graph as graph_mod
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


def dense_parse(root, n=None):
    """The table parsed whole, with the values float() gives each token; its
    first n rows, given n."""
    lines = (root / "features.txt").read_text().splitlines()[1:][:n]
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


def digit_rows(rng, n, d, density):
    """Tokens of an n x d table of one-digit numbers, about density of them
    nonzero (1 to 9)."""
    digits = rng.integers(1, 10, size=(n, d)) * (rng.random((n, d)) < density)
    return np.array(list("0123456789"))[digits].tolist()


def assert_same_table(x, want):
    """x has the dtype and bytes of the dense table want, in x's form: CSR
    stores the entries of want that are != 0, in row-major order."""
    if sp.issparse(x):
        want = sp.csr_matrix(want)
        for name in ("data", "indices", "indptr"):
            got, expect = getattr(x, name), getattr(want, name)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), name
    else:
        assert x.dtype == want.dtype and x.shape == want.shape
        assert x.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def digit_table(kind, rng):
    """Rows of a one-digit table: CSR-sized, dense from a later block on,
    or below SPARSE_MIN_SIZE."""
    if kind == "csr":
        return digit_rows(rng, N, D, 0.05)
    if kind == "small":
        return digit_rows(rng, 40, 50, 0.3)
    sparse_rows = FEATURE_BLOCK // D + 5
    return digit_rows(rng, sparse_rows, D, 0.01) + digit_rows(rng, N - sparse_rows, D, 0.9)


@pytest.mark.parametrize("kind", ["csr", "later-dense", "small"])
def test_digit_table_loads_as_a_dense_parse(tmp_path, kind):
    root = write_table(tmp_path / "ds", digit_table(kind, np.random.default_rng(8)))
    x = load_dataset(root).features
    assert sp.issparse(x) == (kind == "csr")
    assert_same_table(x, dense_parse(root))


@pytest.mark.parametrize("kind", ["csr", "later-dense", "small"])
def test_written_digit_table_is_read_from_its_bytes(tmp_path, monkeypatch, kind):
    import jcgraph.graph as graph_mod

    src = write_table(tmp_path / "a", digit_table(kind, np.random.default_rng(10)))
    write_dataset(tmp_path / "b", load_dataset(src))
    assert (tmp_path / "b" / "features.txt").read_bytes() == (src / "features.txt").read_bytes()
    decoded, decode = [], graph_mod._decode

    def spy(path, raw):
        decoded.append(Path(path).name)
        return decode(path, raw)
    monkeypatch.setattr(graph_mod, "_decode", spy)
    assert_same_table(load_dataset(tmp_path / "b").features, dense_parse(src))
    assert "features.txt" not in decoded and "graph.txt" in decoded


@pytest.mark.parametrize("value", ["-0.0", "0.5", "10.0"])
def test_written_table_with_a_non_digit_keeps_its_bits(tmp_path, value):
    rows = digit_rows(np.random.default_rng(11), 40, 50, 0.3)
    rows[7][3] = value
    src = write_table(tmp_path / "a", rows)
    write_dataset(tmp_path / "b", load_dataset(src))
    assert f" {value} " in (tmp_path / "b" / "features.txt").read_text()
    assert_same_table(load_dataset(tmp_path / "b").features, dense_parse(src))


def at_line(edit):
    """The change of a file's text that edits its line LINE."""
    def change(text):
        lines = text.split("\n")
        lines[LINE - 1] = edit(lines[LINE - 1])
        return "\n".join(lines)
    return change


def join_rows(text):
    """The text with the newline that ends line LINE made a space."""
    lines = text.split("\n")
    lines[LINE - 1:LINE + 1] = [lines[LINE - 1] + " " + lines[LINE]]
    return "\n".join(lines)


# a change of one thing in a file of one-digit rows -> the change of its text
# (a lone surrogate "\udcXX" stands for the byte 0xXX)
OFF_LAYOUT = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tab": at_line(lambda line: line.replace(" ", "\t", 1)),
    "double-space": at_line(lambda line: line.replace(" ", "  ", 1)),
    "two-digits": at_line(lambda line: "10" + line[1:]),
    "plus-sign": at_line(lambda line: "+1" + line[1:]),
    "minus-zero": at_line(lambda line: "-0" + line[1:]),
    "decimal": at_line(lambda line: "1.0" + line[1:]),
    "non-ascii-digit": at_line(lambda line: "\u0663" + line[1:]),  # ARABIC-INDIC DIGIT THREE
    "no-final-newline": lambda text: text[:-1],
    "blank-lines-past-the-end": lambda text: text + "\n \n",
}

# the same for changes that a text parse rejects -> its error; the last two
# keep the file's size, so only the per-row checks of the layout find them
OFF_LAYOUT_ERRORS = {
    "not-utf8": (at_line(lambda line: "\udcff" + line[1:]),
                 f"{LINE}: byte 0xff is not utf-8 text (invalid start byte)"),
    "wrong-node-count": (lambda text: text.replace(f"{N} {D}", f"{N - 1} {D}", 1),
                         f"1: node count {N - 1} does not match graph.txt ({N})"),
    "extra-row": (lambda text: text + "1 " * (D - 1) + "1\n",
                  f"{N + 2}: expected only blank lines after line {N + 1}"),
    "digit-for-space": (at_line(lambda line: line[0] + "0" + line[2:]),
                        f"{LINE}: expected {D} values, got {D - 1}"),
    "joined-rows": (join_rows, f"{LINE}: expected {D} values, got {2 * D}"),
}


def changed_digit_table(root, kind, change):
    root = write_table(root, digit_table(kind, np.random.default_rng(9)))
    path = root / "features.txt"
    path.write_bytes(change(path.read_text()).encode("utf-8", "surrogateescape"))
    return root


# the later-dense table breaks the layout in a block that is read after its
# nonzeros made it dense
@pytest.mark.parametrize("kind, change", [("csr", c) for c in sorted(OFF_LAYOUT)] +
                         [("later-dense", "decimal")])
def test_table_off_the_digit_layout_loads_as_a_dense_parse(tmp_path, kind, change):
    root = changed_digit_table(tmp_path / "ds", kind, OFF_LAYOUT[change])
    assert_same_table(load_dataset(root).features, dense_parse(root, N))


@pytest.mark.parametrize("change", sorted(OFF_LAYOUT_ERRORS))
def test_table_off_the_digit_layout_raises_the_text_error(tmp_path, change):
    edit, error = OFF_LAYOUT_ERRORS[change]
    root = changed_digit_table(tmp_path / "ds", "csr", edit)
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{root / 'features.txt'}:{error}") + "$"):
        load_dataset(root)


def test_digit_table_load_holds_the_file_once(tmp_path):
    # a text parse holds the decoded string and its lines, ~3.1x the file
    # on this table; the bytes, their CSR blocks and the table peak ~1.7x
    root = write_table(tmp_path / "ds", binary_rows(np.random.default_rng(7), N, D, 0.05))
    size = (root / "features.txt").stat().st_size
    tracemalloc.start()
    try:
        load_dataset(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size


def test_csr_table_is_filled_without_a_second_copy(tmp_path):
    # twelve row blocks of one-digit tokens at 10%, written as bytes. The
    # blocks keep a byte for each digit and each column until the CSR arrays
    # are filled, so the load peaks near the file and one table (~1.3x the
    # table over the file); CSR blocks stacked at the end would hold two
    # tables at once (~2.1x)
    n, d = 12 * (FEATURE_BLOCK // 100), 100
    rng = np.random.default_rng(12)
    digits = rng.integers(1, 10, size=(n, d)) * (rng.random((n, d)) < 0.1)
    root = write_table(tmp_path / "ds", [["0"]] * n)
    body = np.full((n, 2 * d), ord(" "), dtype=np.uint8)
    body[:, 0::2] = digits + ord("0")
    body[:, -1] = ord("\n")
    (root / "features.txt").write_bytes(f"{n} {d}\n".encode() + body.tobytes())
    size = (root / "features.txt").stat().st_size
    tracemalloc.start()
    try:
        x = load_dataset(root).features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_table(x, digits.astype(np.float64))
    table = x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
    assert peak < size + 1.5 * table


NOT_DIGITS = [b for b in range(256) if not ord("0") <= b <= ord("9")]


@st.composite
def digit_files(draw):
    """(n, the bytes of a features file of n rows of one-digit tokens, whether
    one byte of its body was changed, whether it is read with a block size
    and a CSR threshold small enough for its size). The header has an odd
    length when one of n and d has two digits, so the body's 16-bit tokens
    start at an odd offset; densities run from 0 to 1."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    digits = rng.integers(1, 10, size=(n, d)) * (rng.random((n, d)) < density)
    body = np.full((n, 2 * d), ord(" "), dtype=np.uint8)
    body[:, 0::2] = digits + ord("0")
    body[:, -1] = ord("\n")
    body = body.ravel()
    changed = draw(st.booleans())
    if changed:  # a separator becomes any other byte, a digit any non-digit byte
        at = draw(st.integers(0, body.size - 1))
        others = NOT_DIGITS if at % 2 == 0 else [b for b in range(256) if b != body[at]]
        body[at] = draw(st.sampled_from(others))
    return n, f"{n} {d}\n".encode() + body.tobytes(), changed, draw(st.booleans())


def features_or_error(path, n):
    """_read_features's table, or the message of its DatasetFormatError."""
    try:
        return graph_mod._read_features(path, n)
    except DatasetFormatError as e:
        return str(e)


@settings(max_examples=300)
@given(digit_files())
@example((3, b"3 10\n" + b"0 0 0 0 0 0 0 0 0 1\n" * 3, False, True))  # odd header, 30 entries
def test_byte_path_gives_the_text_parse(case):
    n, raw, changed, small_blocks = case
    sizes = (dict(FEATURE_BLOCK=16, SPARSE_MIN_SIZE=1) if small_blocks else
             dict(FEATURE_BLOCK=FEATURE_BLOCK, SPARSE_MIN_SIZE=SPARSE_MIN_SIZE))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(graph_mod, **sizes):
        path = Path(tmp) / "features.txt"
        path.write_bytes(raw)
        with mock.patch.object(graph_mod, "_decode", wraps=graph_mod._decode) as decode:
            got = features_or_error(path, n)
        assert decode.called == changed  # the byte path reads every table it is given whole
        with mock.patch.object(graph_mod, "_digit_blocks", side_effect=graph_mod._NotDigits):
            want = features_or_error(path, n)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    arrays = (lambda x: [x.data, x.indices, x.indptr]) if sp.issparse(want) else (lambda x: [x])
    for a, b in zip(arrays(got), arrays(want)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    lines = raw.decode().split("\n")[1:n + 1]  # and the values float() gives each token
    assert_same_table(got, np.array([[float(t) for t in line.split()] for line in lines]))
