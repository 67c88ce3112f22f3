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
        "c9859a4aedbaae746fdda8dfabbb3edebf95fc0a1cbf2443f8194e4846646efa",
        "175dba1d3e9af5e0fb9cd522c07e4fbab4250cbccfce26a7c181f3d6cc2fdbe3",
    ),
    ("dense", "mlp", "ce"): (
        "2a5395aa8e9cbbe2f3f88edbc347b8435efc4f4566466948b9826143816282bc",
        "91edd2a7a468e39a2971313dc73e35cdd58d3cf6078ce344d3dc9262d33453bc",
        "0b948abd74961c3deba0072d9a8030bd0d34987a5d2c4f9a31a1cdb965c21f69",
    ),
    ("dense", "mlp", "jc"): (
        "b9d3e1f499f24eab48806939a5f234c26d55fdf5754398b8b7bfdf1e105cc794",
        "b4d46d375a357f79b52e358aeb652dac8138c2ec5fb91502d29d2b65717b5c69",
        "d3fdef8e376735566367c3ae6ff5f3aafa30c01d647c395c627bc665a3f5da70",
    ),
    ("dense", "sgc", "ce"): (
        "f52e7189ed906f18100e4fc8f1d9a14a61e6df059d4f6963f3c0ed0b01148c22",
        "a601ca91a1bf7680dda62f2b07726d7759b8a9e50ad0cc75a1c0eba9136338e5",
        "2b7c902cb3b8508e2cc519217a23a3b906525051d7644cf1b12306b1beab62ea",
    ),
    ("dense", "sgc", "jc"): (
        "5d3ab441a838a89dd8812ccfebd4529761b2b852bfb25888e203739f3625d54a",
        "6b685a320ccb7b0f9c3bcab09ff7741a1b7cb5c8ae23673c5435c766a5b10a8d",
        "f60b7eff7e2462ac17da8ef890d27e75d40462f55774c4c4808692b991148961",
    ),
    ("csr", "gcn", "ce"): (
        "685302b4dff79578e99a8d8319ea52e066ce993442a9c32f5b120b0b1c80e76b",
        "6b42560f91bec3a4c02dc0cf5aa0cf858ff3f4b5659f8f135fd85409095363ff",
        "6330ec817c7abbdce0ec47d25ea90ed1f206bdac71d6e1a460bd8b52cfd93c3a",
    ),
    ("csr", "gcn", "jc"): (
        "8bc655428f967541eefc757ca9ef3e45df9d421a199398a3b06cb151300bb55f",
        "610b1f32b578e8e319bfb1cd60646b475c48eb92078821eb01b1b099a1808a05",
        "9c8b33d021b89d10fb70430c4001936551f24b3f80af09add354ddba8019a145",
    ),
    ("csr", "mlp", "ce"): (
        "cecf07e8f6127c0ac4cf098de7465c500e06bc417b24cf690bcee45689ff9a06",
        "737eb677b1ad79166c69b32d671fffd32bfea0b20bea0b23246a87aff83ecba3",
        "f9bc8ffeb3ab5ef6ecbe07292ab945e3c9499d00a742073181a9cf8718dbf548",
    ),
    ("csr", "mlp", "jc"): (
        "b00a1dab5987529e8083a39fda51ec8f54a995ca5da513387f1deef8a6a1bf33",
        "799f5a36af3319524f0f427cd08f1e86359852e84585f978eee72e2193695563",
        "7b90e2a98bc53217b0720463e71343f8351c16336df2201de8ee496008d152ea",
    ),
    ("csr", "sgc", "ce"): (
        "6241580ddfda2bf1b03587ce62b5ecdaf18e926f86ac87c8b92b86eea20acc52",
        "99ae2b8926321beb505cef68077354bb722cd6d7ec848fec244dd24b7eb17c76",
        "bd4ba82ed14db094f1bf145450ef5a7236e7542d7e77677f5903008ac84906ce",
    ),
    ("csr", "sgc", "jc"): (
        "3bb49651b1ec3bcb752f50034c4d02804950f2524709bfe886d3401302f27763",
        "b3c6952e1d64971f289d9416c434475891b17a3cad6ad34c7f4866f06a6872d3",
        "dba94fe4ae19b3107852a98c1b337eb02a8424e800c6364baec577ff4c0f8da8",
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
