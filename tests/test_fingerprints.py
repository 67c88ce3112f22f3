"""Golden SHA-256 fingerprints of seeded ``jcgraph train`` outputs.

Every encoder x {ce, jc} trains on two block-model graphs: one whose
features are small and dense, and one whose sparse features are large enough
to be multiplied in CSR form. The digests come from the encoder that
computed every row at every step, so any change of a digest is a change of
results, not of speed. A ``.ckpt`` digest is of the bytes of its ``.npz``
archive: numpy dates every zip entry 1980-01-01, so the archive of equal
parameters is equal bytes. They were taken with numpy 2.4.6 and scipy-openblas
0.3.31 on x86-64; another BLAS build may round matrix products differently.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from jcgraph.cli import main
from jcgraph.graph import SPARSE_DENSITY, SPARSE_MIN_SIZE, Dataset, gen_sbm, write_dataset

SUFFIXES = (".result", ".curves.csv", ".ckpt")

# (graph, encoder, loss) -> SHA-256 of the .result, .curves.csv and .ckpt files
GOLDEN = {
    ("dense", "gcn", "ce"): (
        "8665f9a074f4cd377a10a1713fefbac3b55ea3aef68e7e5ca1a80e900ca7b418",
        "42de5a494a421deb17748f2aa4d8f9c8c2d4b210198a925db1cd708a73f3da8a",
        "ab7555765ba835d7951234dedbf7293c25c9b08e665766cda3d88d66fd61c866",
    ),
    ("dense", "gcn", "jc"): (
        "52106a266217cf44090b55b6b4932c67c3be4a82b4ab86ac271e9e8859b5c5b0",
        "aac70ee4d620760e80468a9d638533dad7f3f81417f9de440393047b4d267f87",
        "505ece6a129d2496eb2f9f0e1c5ae2b807e00fffd5ba339548de2ac954548552",
    ),
    ("dense", "mlp", "ce"): (
        "2a5395aa8e9cbbe2f3f88edbc347b8435efc4f4566466948b9826143816282bc",
        "91edd2a7a468e39a2971313dc73e35cdd58d3cf6078ce344d3dc9262d33453bc",
        "0b948abd74961c3deba0072d9a8030bd0d34987a5d2c4f9a31a1cdb965c21f69",
    ),
    ("dense", "mlp", "jc"): (
        "b9d3e1f499f24eab48806939a5f234c26d55fdf5754398b8b7bfdf1e105cc794",
        "28268dd0cc51ecb346e69743b10a74325d0c0b36e1ac668de75e06fe912b4256",
        "b2e441abeffa7ad94b02b3ea4bdad9c41606e0d11327c794aad7f03916defb6c",
    ),
    ("dense", "sgc", "ce"): (
        "f52e7189ed906f18100e4fc8f1d9a14a61e6df059d4f6963f3c0ed0b01148c22",
        "a601ca91a1bf7680dda62f2b07726d7759b8a9e50ad0cc75a1c0eba9136338e5",
        "2b7c902cb3b8508e2cc519217a23a3b906525051d7644cf1b12306b1beab62ea",
    ),
    ("dense", "sgc", "jc"): (
        "5deff50058b37380bbc8177f929aaf26e382717e4f437d4c24c4a92e2033f324",
        "2470db393a2718c1b26c84ff8d7ea993676514ae6ea6e1f200c04773b7a7e683",
        "7f9f1ba83cc5d2ab6437d25b502e8c7cb8de3489f2d60a064549bf7d26a8875a",
    ),
    ("csr", "gcn", "ce"): (
        "685302b4dff79578e99a8d8319ea52e066ce993442a9c32f5b120b0b1c80e76b",
        "6b42560f91bec3a4c02dc0cf5aa0cf858ff3f4b5659f8f135fd85409095363ff",
        "6330ec817c7abbdce0ec47d25ea90ed1f206bdac71d6e1a460bd8b52cfd93c3a",
    ),
    ("csr", "gcn", "jc"): (
        "fb178a1cf3a444616df7194370e769421567ab8fa899643324c7491d5dea7d0a",
        "80ddb0dde61fc2e8b4b13c76c1e17cc29241e1428e9ce5d36564a29b12616fde",
        "8da685f08767de89a746291e4069fb05041b28dfbecc30ad721908fde2adbe84",
    ),
    ("csr", "mlp", "ce"): (
        "cecf07e8f6127c0ac4cf098de7465c500e06bc417b24cf690bcee45689ff9a06",
        "737eb677b1ad79166c69b32d671fffd32bfea0b20bea0b23246a87aff83ecba3",
        "f9bc8ffeb3ab5ef6ecbe07292ab945e3c9499d00a742073181a9cf8718dbf548",
    ),
    ("csr", "mlp", "jc"): (
        "b00a1dab5987529e8083a39fda51ec8f54a995ca5da513387f1deef8a6a1bf33",
        "e4d970e9ddae98a19694b2ec56e4af0dc6f5a235146d431c86fc5dff73656769",
        "550caf0db4dcf70631d892f9d5bc41fe5d6af4c8fc7b3fb2142fe6ff52f5c6b2",
    ),
    ("csr", "sgc", "ce"): (
        "6241580ddfda2bf1b03587ce62b5ecdaf18e926f86ac87c8b92b86eea20acc52",
        "99ae2b8926321beb505cef68077354bb722cd6d7ec848fec244dd24b7eb17c76",
        "bd4ba82ed14db094f1bf145450ef5a7236e7542d7e77677f5903008ac84906ce",
    ),
    ("csr", "sgc", "jc"): (
        "14cf94b6445e2b497a7d06706343a23c6d1ebae51774f82688d11dbee997b57a",
        "51c9bc836fa18c16f8d23859ffde6dbc25a7c2e6fba66dfa1511b208bdd6fdae",
        "eca4bde9b550c1a714a129eb1b1b6b9948495b01e0e9dc58b95b3d81bf4701ad",
    ),
}


def _graphs():
    small = gen_sbm(4, 30, 0.2, 0.02, 8, 0.5, seed=3)
    big = gen_sbm(4, 100, 0.05, 0.005, 128, 1.0, seed=4)
    sparse = np.where(big.features > 1.5, big.features, 0.0)
    return {"dense": small, "csr": Dataset(big.graph, sparse, big.labels, big.masks)}


@pytest.fixture(scope="module")
def graph_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fingerprints")
    dirs = {}
    for name, data in _graphs().items():
        x = data.features
        twin = x.size >= SPARSE_MIN_SIZE and np.count_nonzero(x) / x.size <= SPARSE_DENSITY
        assert twin == (name == "csr")
        dirs[name] = root / name
        write_dataset(dirs[name], data)
    return dirs


def fingerprint(dataset, out, encoder, loss) -> tuple[str, ...]:
    cfg = Path(f"{out}.cfg")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
        "dataset": dataset, "out": out, "encoder": encoder, "loss": loss, "layers": 2,
        "hidden": 8, "dropout": 0.5, "clusters": 3, "epochs": 15, "seed": 5}.items()))
    assert main(["train", str(cfg)]) == 0
    return tuple(hashlib.sha256(Path(f"{out}{s}").read_bytes()).hexdigest() for s in SUFFIXES)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_seeded_outputs_match_golden(key, graph_dirs, tmp_path):
    graph, encoder, loss = key
    assert fingerprint(graph_dirs[graph], tmp_path / "run", encoder, loss) == GOLDEN[key]
