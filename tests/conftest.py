import numpy as np
import pytest
from hypothesis import settings

from jcgraph.graph import Dataset, LabelSet, gen_sbm
from jcgraph.nn import plan_rows

# every property runs the same examples on every run: no random draws, no
# example database and no deadline; a test sets only its max_examples
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def sbm12() -> Dataset:
    """Fixed 12-node two-block graph used by the gradient checks."""
    return gen_sbm(2, 6, 0.9, 0.1, 3, 0.3, seed=7)


@pytest.fixture(scope="session")
def sbm12_multi(sbm12) -> Dataset:
    """Same graph with labels reinterpreted as two binary tasks."""
    labels = LabelSet(sbm12.labels.num_classes, "m", sbm12.labels.matrix.copy())
    return Dataset(sbm12.graph, sbm12.features, labels, sbm12.masks)


@pytest.fixture(scope="session")
def easy_sbm() -> Dataset:
    """Near-separable four-block graph with clean features."""
    return gen_sbm(4, 50, 0.2, 0.01, 8, 0.5, seed=1)


@pytest.fixture(scope="session")
def hard_feature_sbm() -> Dataset:
    """Strong block structure but very noisy features; mlp needs the clusters."""
    return gen_sbm(4, 50, 0.15, 0.01, 8, 3.0, seed=2)


def rng_graph(rng, n, p):
    """Random undirected graph helper shared by several tests."""
    from jcgraph.graph import Graph

    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph.from_undirected_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))


def all_rows(spec, adj, x):
    """The plan that computes every row: the oracle that cut plans are
    compared with."""
    plan, = plan_rows(spec, adj, x, np.arange(x.shape[0]))
    return plan


def assert_within(got, want, rel=1e-12, name=""):
    """Max abs difference at most rel times want's max abs value: the bound
    for values whose dense products ran at another height or summed fewer
    zero terms."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    bound = rel * np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= bound, name
