"""Properties of the table reader behind the dataset loader and assignment
files (bit-exact round trips, file:line errors, and the tokens where numpy's
table parser and int()/float() disagree), and the bit-exact round trip of a
checkpoint through np.load."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgraph.graph import (Dataset, DatasetFormatError, LabelSet, SplitMasks,
                           load_dataset, write_dataset)
from jcgraph.nn import ModelSpec, init_params, save_checkpoint
from jcgraph.partition import ClusterAssignment, read_assignment, write_assignment

from conftest import rng_graph

FILES = ("graph.txt", "features.txt", "labels.txt", "masks.txt")


def small_dataset(seed, features=None, multilabel=False):
    """A random dataset with at least one edge; n >= 4 so every split has a node."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12)) if features is None else len(features)
    d = int(rng.integers(1, 5)) if features is None else len(features[0])
    c = int(rng.integers(2, 5))
    graph = rng_graph(rng, n, 0.4)
    while graph.num_edges == 0:
        graph = rng_graph(rng, n, 0.4)
    x = rng.normal(size=(n, d)) if features is None else np.asarray(features, dtype=np.float64)
    if multilabel:
        labels = LabelSet(c, "m", (rng.random((n, c)) < 0.5).astype(np.float64))
    else:
        labels = LabelSet(c, "s", np.eye(c)[rng.integers(0, c, n)])
    order = rng.permutation(n)
    masks = SplitMasks(np.sort(order[:1]), np.sort(order[1:2]), np.sort(order[2:]))
    return Dataset(graph, x, labels, masks)


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
edge_values = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                               1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300,
                               -0.0, 0.0, 0.1, 1 / 3])


@settings(max_examples=60)
@given(rows=st.integers(4, 8).flatmap(
           lambda n: st.integers(1, 4).flatmap(
               lambda d: st.lists(st.lists(finite | edge_values, min_size=d, max_size=d),
                                  min_size=n, max_size=n))),
       seed=st.integers(0, 2**32 - 1), multilabel=st.booleans())
def test_roundtrip_is_bit_exact(tmp_path_factory, rows, seed, multilabel):
    ds = small_dataset(seed, features=rows, multilabel=multilabel)
    root = tmp_path_factory.mktemp("rt")
    write_dataset(root, ds)
    back = load_dataset(root)
    np.testing.assert_array_equal(back.features.view(np.int64), ds.features.view(np.int64))
    np.testing.assert_array_equal(back.labels.matrix, ds.labels.matrix)
    assert back.labels.kind == ds.labels.kind
    np.testing.assert_array_equal(back.graph.indptr, ds.graph.indptr)
    np.testing.assert_array_equal(back.graph.indices, ds.graph.indices)
    for name in ("train", "val", "test"):
        np.testing.assert_array_equal(getattr(back.masks, name), getattr(ds.masks, name))


def _replace_token(line, token):
    toks = line.split(" ")
    toks[len(toks) // 2] = token
    return " ".join(toks)


# mutation -> (file, how a data line at index L is rewritten)
MUTATIONS = {
    "graph-non-numeric": ("graph.txt", lambda line, ds: _replace_token(line, "x")),
    "graph-token-count": ("graph.txt", lambda line, ds: line + " 0"),
    "graph-blank": ("graph.txt", lambda line, ds: ""),
    "graph-self-loop": ("graph.txt", lambda line, ds: "1 1"),
    "graph-out-of-range": ("graph.txt", lambda line, ds: f"0 {ds.num_nodes}"),
    "features-non-numeric": ("features.txt", lambda line, ds: _replace_token(line, "x")),
    "features-token-count": ("features.txt", lambda line, ds: line + " 1.0"),
    "features-blank": ("features.txt", lambda line, ds: ""),
    "labels-non-numeric": ("labels.txt", lambda line, ds: "x"),
    "labels-token-count": ("labels.txt", lambda line, ds: line + " 0"),
    "labels-blank": ("labels.txt", lambda line, ds: ""),
    "labels-class-out-of-range": ("labels.txt", lambda line, ds: str(ds.labels.num_classes)),
}


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1),
       mutation=st.sampled_from(sorted(MUTATIONS) + ["truncated"]),
       truncated=st.sampled_from(["graph.txt", "features.txt", "labels.txt"]),
       where=st.floats(0.0, 1.0, exclude_max=True))
def test_single_mutation_names_file_and_line(tmp_path_factory, seed, mutation, truncated, where):
    ds = small_dataset(seed)
    root = tmp_path_factory.mktemp("mut")
    write_dataset(root, ds)
    name = truncated if mutation == "truncated" else MUTATIONS[mutation][0]
    path = root / name
    lines = path.read_text().split("\n")
    data_lines = len(lines) - 2  # header first, empty string after the last newline
    lineno = 2 + int(where * data_lines)
    if mutation == "truncated":
        path.write_text("".join(line + "\n" for line in lines[:lineno - 1]))
    else:
        lines[lineno - 1] = MUTATIONS[mutation][1](lines[lineno - 1], ds)
        path.write_text("\n".join(lines))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value).startswith(f"{path}:{lineno}:")


def small_assignment(seed):
    """m clusters of n >= m nodes: read_assignment rejects a header m > n."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    return ClusterAssignment(m, rng.integers(0, m, int(rng.integers(m, 12))))


def small_spec(seed):
    rng = np.random.default_rng(seed)
    encoder = ("gcn", "sgc", "mlp")[int(rng.integers(3))]
    return ModelSpec(encoder, int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                     int(rng.integers(1, 5)), int(rng.integers(2, 4)), 0.5,
                     ("independent", "joint")[int(rng.integers(2))])


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_assignment_roundtrip_is_exact(tmp_path_factory, seed):
    a = small_assignment(seed)
    path = tmp_path_factory.mktemp("a") / "a.txt"
    write_assignment(path, a)
    back = read_assignment(path)
    assert back.num_clusters == a.num_clusters
    np.testing.assert_array_equal(back.assign, a.assign)


# float64 bit patterns: -0.0, the smallest and largest subnormals, +-inf, a
# quiet and a signalling NaN, and NaNs with payloads of either sign
edge_bits = st.sampled_from([0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                             0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
                             0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000123,
                             0xFFFFFFFFFFFFFFFF])


@settings(max_examples=40)
@given(spec=st.integers(0, 2**32 - 1).map(small_spec), seed=st.integers(0, 2**32 - 1),
       bits=st.none() | st.lists(st.integers(0, 2**64 - 1) | edge_bits, min_size=1))
def test_checkpoint_roundtrip_is_bit_exact(tmp_path_factory, spec, seed, bits):
    # the drawn bit patterns, repeated to fill every tensor; None keeps the
    # weights that init_params draws
    params = init_params(spec, seed)
    if bits is not None:
        for v in params.values():
            v.view(np.uint64).flat[:] = np.resize(np.array(bits, dtype=np.uint64), v.size)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, spec, params)
    with np.load(path, allow_pickle=False) as archive:
        back = {name: archive[name] for name in archive.files}
    keys = [f.name for f in fields(ModelSpec)]
    assert list(back) == [f"spec.{key}" for key in keys] + list(params)
    assert all(back[f"spec.{key}"].shape == () for key in keys)
    assert ModelSpec(**{key: back[f"spec.{key}"].item() for key in keys}) == spec
    for name, v in params.items():
        assert back[name].dtype == v.dtype and back[name].shape == v.shape
        np.testing.assert_array_equal(back[name].view(np.uint64), v.view(np.uint64))


# mutation -> how an assignment's id line is rewritten; "out-of-range" puts
# an id at m
TABLE_MUTATIONS = {
    "non-numeric": lambda line, bound: _replace_token(line, "x"),
    "token-count": lambda line, bound: line + " 0",
    "blank": lambda line, bound: "",
    "out-of-range": lambda line, bound: str(bound),
}


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       mutation=st.sampled_from(sorted(TABLE_MUTATIONS) + ["truncated"]),
       where=st.floats(0.0, 1.0, exclude_max=True))
def test_assignment_and_checkpoint_mutation_names_file_and_line(tmp_path_factory, seed, mutation,
                                                                where):
    a = small_assignment(seed)
    path = tmp_path_factory.mktemp("mut") / "a.txt"
    write_assignment(path, a)
    lines = path.read_text().split("\n")[:-1]  # the file ends with a newline
    lineno = 2 + int(where * (len(lines) - 1))  # an id line, after the header
    if mutation == "truncated":
        path.write_text("".join(line + "\n" for line in lines[:lineno - 1]))
    else:
        lines[lineno - 1] = TABLE_MUTATIONS[mutation](lines[lineno - 1], a.num_clusters)
        path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DatasetFormatError) as err:
        read_assignment(path)
    assert str(err.value).startswith(f"{path}:{lineno}:")


def _written(root, kind, seed):
    """A valid file of the kind (a dataset file's name or "assignment") and
    the call that loads it."""
    if kind == "assignment":
        write_assignment(root / "a.txt", small_assignment(seed))
        return root / "a.txt", read_assignment
    write_dataset(root, small_dataset(seed))
    return root / kind, lambda path: load_dataset(root)


@pytest.mark.parametrize("kind", FILES + ("assignment",))
def test_line_past_the_end_names_its_line(tmp_path, kind):
    # a table's file ends at its declared rows: blank lines past it load, and
    # the first other line is an error at its line
    path, read = _written(tmp_path, kind, seed=3)
    text = path.read_text()
    last = text.count("\n")  # the file's last line ends with a newline
    path.write_text(text + "\n \t\n")
    read(path)
    path.write_text(text + "\n \t\n" + text.split("\n")[1] + "\n\n")
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}:{last + 3}: expected only blank lines after line {last}") + "$"):
        read(path)


def _write(root, graph="12 1\n0 1\n", features=None, labels=None,
           masks="train: 0\nval: 1\ntest: 2\n"):
    features = features or "12 1\n" + "0.5\n" * 12
    labels = labels or "12 2 s\n" + "0\n1\n" * 6
    for name, text in zip(FILES, (graph, features, labels, masks)):
        (root / name).write_text(text)
    return root


def _features(token):
    return "12 1\n" + f"{token}\n" + "0.5\n" * 11


def _labels(token):
    return "12 2 s\n" + f"{token}\n" + "1\n" * 11


# tokens on which numpy's table parser and int()/float() differ; each case
# loads (checked by `check`) or fails (DatasetFormatError matching `error`)
# exactly as the per-line parser decides
TOKEN_TABLE = [
    ("graph 1_0", dict(graph="12 1\n0 1_0\n"), lambda ds: ds.graph.has_edge(0, 10), None),
    ("graph #", dict(graph="12 1\n0 #\n"), None, r"graph.txt:2: expected integers"),
    ("graph 0 1 #", dict(graph="12 1\n0 1 #\n"), None, r"graph.txt:2: expected 2 values, got 3"),
    ("graph +1", dict(graph="12 1\n0 +1\n"), lambda ds: ds.graph.has_edge(0, 1), None),
    ("graph 1.0", dict(graph="12 1\n0 1.0\n"), None, r"graph.txt:2: expected integers"),
    ("graph nan", dict(graph="12 1\n0 nan\n"), None, r"graph.txt:2: expected integers"),
    ("features 1_0", dict(features=_features("1_0")), lambda ds: ds.features[0, 0] == 10.0, None),
    ("features #", dict(features=_features("#")), None, r"features.txt:2: expected numbers"),
    ("features 0.5 #", dict(features=_features("0.5 #")), None, r"features.txt:2: expected 1 values, got 2"),
    ("features +1", dict(features=_features("+1")), lambda ds: ds.features[0, 0] == 1.0, None),
    ("features nan", dict(features=_features("nan")), None, r"features.txt:2: non-finite feature value nan"),
    ("features 1e999", dict(features=_features("1e999")), None, r"features.txt:2: non-finite feature value inf"),
    ("features 2.5e-324", dict(features=_features("2.5e-324")),
     lambda ds: ds.features[0, 0] == 5e-324, None),
    ("labels 1_0", dict(labels=_labels("1_0")), None, r"labels.txt:2: class index 10 out of range"),
    ("labels #", dict(labels=_labels("#")), None, r"labels.txt:2: expected integers"),
    ("labels +1", dict(labels=_labels("+1")), lambda ds: ds.labels.class_index()[0] == 1, None),
    ("labels 1.0", dict(labels=_labels("1.0")), None, r"labels.txt:2: expected integers"),
]


@pytest.mark.parametrize("files,check,error", [case[1:] for case in TOKEN_TABLE],
                         ids=[case[0] for case in TOKEN_TABLE])
def test_tokens_where_parsers_differ(tmp_path, files, check, error):
    root = _write(tmp_path, **files)
    if error is None:
        assert check(load_dataset(root))
    else:
        with pytest.raises(DatasetFormatError, match=re.escape(str(root)) + "/" + error):
            load_dataset(root)


# (file, its text, line, message): one bad header or mask line each
HEADER_AND_MASK_ERRORS = [
    ("graph.txt", "", 1, "missing 'n m' header"),
    ("graph.txt", "0 0\n", 1, "bad header n=0 m=0"),
    ("features.txt", "\n", 1, "missing 'n d' header"),
    ("features.txt", "12 0\n", 1, "bad feature dim 0"),
    ("labels.txt", "\n", 1, "missing 'n c kind' header"),
    ("labels.txt", "12 2\n" + "0\n" * 12, 1, "expected 'n c kind' header, got '12 2'"),
    ("labels.txt", "11 2 s\n" + "0\n" * 11, 1, "node count 11 does not match graph.txt (12)"),
    ("labels.txt", "12 2 x\n" + "0\n" * 12, 1, "label kind must be 's' or 'm', got 'x'"),
    ("labels.txt", "12 0 s\n" + "0\n" * 12, 1, "bad class count 0"),
    ("masks.txt", "train: 0\ntest: 2\n", 2, "expected line starting with 'val:'"),
    ("masks.txt", "train: 0\nval: 12\ntest: 2\n", 2, "val index out of range for n=12"),
    ("masks.txt", "train: 0 3 0\nval: 1\ntest: 2\n", 1, "duplicate index in train mask"),
    ("masks.txt", "train:\nval: 1\ntest: 2\n", 1, "train mask is empty"),
]


@pytest.mark.parametrize("name,text,line,message", HEADER_AND_MASK_ERRORS,
                         ids=[case[3].split(" ")[0] + "-" + case[0] for case in HEADER_AND_MASK_ERRORS])
def test_header_and_mask_errors_name_file_and_line(tmp_path, name, text, line, message):
    root = _write(tmp_path, **{name.split(".")[0]: text})
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(root)
    assert str(err.value) == f"{root / name}:{line}: {message}"


@pytest.mark.parametrize("kind", ["dataset", "assignment"])
def test_byte_that_is_not_utf8_names_file_and_line(tmp_path, kind):
    # the line that holds the bad byte, counted as the reader splits lines
    if kind == "dataset":
        path, read = _write(tmp_path) / "features.txt", lambda p: load_dataset(p.parent)
    else:
        path, read = tmp_path / "a.txt", read_assignment
        write_assignment(path, small_assignment(0))
    text = path.read_bytes()
    cut = text.index(b"\n", text.index(b"\n") + 1) + 1  # the start of line 3
    path.write_bytes(text[:cut] + b"1\xfe" + text[cut:])
    with pytest.raises(DatasetFormatError) as err:
        read(path)
    assert str(err.value) == f"{path}:3: byte 0xfe is not utf-8 text (invalid start byte)"
