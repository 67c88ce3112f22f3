"""Command-line surface: partition, train, attack, gen-sbm.

Configs are flat "key = value" text files; any key can be overridden by the
matching command-line flag. Relative paths inside a config file resolve
against the config file's directory, flag-supplied paths against the
working directory. Exit codes: 0 success, 1 runtime failure (a non-finite
value in training), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .attack import check_ratios, robustness_sweep, write_sweep_csv
from .graph import DatasetFormatError, gen_sbm, load_dataset, read_lines, write_dataset
from .nn import NumericsError, save_checkpoint
from .partition import edge_cut_stats, write_assignment
from .trainer import (PARTITION_METHODS, TrainConfig, TrainingError, check_clusters,
                      make_partition, train, validate, write_curves, write_result)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _to_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _seed(s: str) -> int:
    """A --seed value of partition and gen-sbm: a non-negative integer."""
    try:
        if int(s) >= 0:
            return int(s)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {s!r}")


def _path(s: str) -> str:
    """A path: a config value resolves against the file's directory, a flag against the cwd."""
    return s


# config key -> value parser; every key is also a flag
CONFIG_KEYS = {
    "dataset": _path,
    "out": _path,
    "encoder": str,
    "layers": int,
    "hidden": int,
    "dropout": float,
    "loss": str,
    "partition": str,
    "clusters": int,
    "clusters_file": _path,
    "lr": float,
    "weight_decay": float,
    "adam_beta1": float,
    "adam_beta2": float,
    "adam_eps": float,
    "epochs": int,
    "eval_every": int,
    "seed": int,
    "detach_cluster": _to_bool,
    "beta": float,
}
# every TrainConfig field is the config key of its name
TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
DEFAULTS = {"dataset": None, "out": "run", **TRAIN_DEFAULTS}


def read_config(path) -> dict:
    """Parse a flat key=value config; unknown and repeated keys are rejected."""
    p = Path(path)
    cfg = dict(DEFAULTS)
    first = {}  # key -> line that set it
    for lineno, line in enumerate(read_lines(p), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r} (first set on line {first[key]})")
        first[key] = lineno
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"{p}:{lineno}: bad value for {key}: {e}") from None
    # resolve config-file-relative paths up front
    for key, conv in CONFIG_KEYS.items():
        if conv is _path and cfg[key]:
            cfg[key] = str((p.parent / cfg[key]).resolve())
    return cfg


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for key, conv in CONFIG_KEYS.items():
        raw = getattr(args, key, None)
        if raw is None:
            continue
        try:
            cfg[key] = str(Path(raw).resolve()) if conv is _path else conv(raw)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"bad value for --{key.replace('_', '-')}: {e}") from None
    return cfg


def _check_out(out, directory=False) -> None:
    """Before the load: an output path that exists as the other kind (a
    directory for a file, a file for a directory) is a bad --out."""
    if Path(out).exists() and Path(out).is_dir() != directory:
        kind = "a file" if directory else "a directory"
        raise ConfigError(f"bad value for --out: {out} is {kind}")


def _make_out_dir(out) -> None:
    """Create the directory of output out before any work; failing is a bad --out."""
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"bad value for --out: {e}") from None


def build_train_config(cfg: dict) -> TrainConfig:
    """Every TrainConfig field from the config key of its name."""
    return TrainConfig(**{k: cfg[k] for k in TRAIN_DEFAULTS})


def cmd_partition(args) -> int:
    _check_out(args.out)
    data = load_dataset(args.dataset)
    check_clusters(args.clusters, data, key="--clusters")
    _make_out_dir(args.out)
    a = make_partition(args.method, data, args.clusters, args.seed)
    write_assignment(args.out, a)
    stats = edge_cut_stats(data.graph, a)
    print(f"within={stats.within_links} between={stats.between_links} rate={stats.rate}")
    return 0


def _read_run(args, outs):
    """A run command's config with its flags applied, and the dataset it
    names, loaded once the output paths outs(config) are checked."""
    cfg = apply_overrides(read_config(args.config), args)
    if not cfg.get("dataset"):
        raise ConfigError("no dataset path given (config key 'dataset' or --dataset)")
    for out in outs(cfg):
        _check_out(out)
    return cfg, load_dataset(cfg["dataset"])


def cmd_train(args) -> int:
    cfg_raw, data = _read_run(args, lambda cfg: [f"{cfg['out']}{suffix}" for suffix in
                                                 (".result", ".curves.csv", ".ckpt")])
    cfg = build_train_config(cfg_raw)
    spec = validate(cfg, data)
    out = Path(cfg_raw["out"])
    _make_out_dir(out)
    result = train(cfg, data)
    write_result(f"{out}.result", cfg, spec, result)
    write_curves(f"{out}.curves.csv", result)
    save_checkpoint(f"{out}.ckpt", spec, result.params)
    print(f"seconds_per_epoch={result.seconds_per_epoch:.4f}", file=sys.stderr)
    print(f"test_acc={result.test_acc!r} f1_micro={result.test_f1_micro!r} "
          f"ece={result.test_ece!r}")
    return 0


def cmd_attack(args) -> int:
    if args.num_seeds < 1:
        raise ConfigError(f"bad value for --seeds: expected an integer >= 1, got {args.num_seeds}")
    cfg_raw, data = _read_run(args, lambda cfg: [args.sweep_out])
    if cfg_raw["loss"] not in ("ce", "jc"):  # the sweep trains both
        raise ConfigError(f"attack compares ce and jc: loss must be 'ce' or 'jc', "
                          f"got {cfg_raw['loss']!r}")
    try:
        ratios = check_ratios(data.graph, [float(t) for t in args.ratios.split(",") if t.strip()])
    except ValueError as e:
        raise ConfigError(f"bad --ratios value {args.ratios!r}: {e}") from None
    cfg = build_train_config(cfg_raw)
    _make_out_dir(args.sweep_out)
    rows = robustness_sweep(data, ratios, cfg, args.num_seeds)
    write_sweep_csv(args.sweep_out, rows)
    for r in rows:
        print(f"ratio={r.ratio} loss={r.loss} mean_acc={r.mean_acc!r} std_acc={r.std_acc!r}")
    return 0


def cmd_gen_sbm(args) -> int:
    _check_out(args.out, directory=True)
    _make_out_dir(args.out)
    try:
        ds = gen_sbm(args.blocks, args.nodes_per_block, args.p_in, args.p_out,
                     args.feat_dim, args.feat_noise, args.seed)
    except MemoryError as e:  # the edge draw is one dense n x n array
        raise ConfigError(f"bad value for --nodes-per-block: the n x n edge draw of n = "
                          f"{args.blocks * args.nodes_per_block} nodes does not fit ({e})") from None
    write_dataset(args.out, ds)
    print(f"wrote {ds.num_nodes} nodes, {ds.graph.num_edges} edges to {args.out}")
    return 0


def _add_config_flags(sub, skip=()):
    for key in CONFIG_KEYS:
        if key in skip:
            continue
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                         help=f"override config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jcgraph")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("partition", help="partition a dataset and print cut stats")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", default="metis-like",
                   choices=[m for m in PARTITION_METHODS if m != "file"])
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("train", help="train one run from a config file")
    p.add_argument("config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("attack", help="random-attack sweep comparing ce and jc")
    p.add_argument("config")
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--seeds", dest="num_seeds", type=int, default=5)
    p.add_argument("--out", dest="sweep_out", required=True)
    _add_config_flags(p, skip=("out",))
    p.set_defaults(func=cmd_attack)

    p = subs.add_parser("gen-sbm", help="generate a synthetic block-model dataset")
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--nodes-per-block", type=int, default=50)
    p.add_argument("--p-in", type=float, default=0.2)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--feat-dim", type=int, default=8)
    p.add_argument("--feat-noise", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_sbm)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if [] in vars(args).values():  # argparse reads the value of "--flag=--" as []
        flag = next(t for t in argv if t.startswith("--") and t.endswith("=--"))
        print(f"error: {flag[:-3]} needs a value, got '--'", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, NumericsError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
