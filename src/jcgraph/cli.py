"""Command-line surface: partition, train, attack, gen-sbm.

Configs are flat "key = value" text files; any key can be overridden by the
matching command-line flag. Relative paths inside a config file resolve
against the config file's directory, flag-supplied paths against the
working directory; an empty path names no file and is an input error. Exit
codes: 0 success, 1 runtime failure (a non-finite value or any other
ValueError once the first epoch starts, after every input check), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .attack import LOSSES, check_ratios, check_sweep, robustness_sweep, sweep_ratios, write_sweep_csv
from .graph import gen_sbm, load_dataset, read_lines, write_dataset
from .losses import LOSS_KINDS
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
    """A path's value, as a config line or a flag: an empty one names no file."""
    if not s:
        raise argparse.ArgumentTypeError(f"expected a path, got {s!r}")
    return s


# every TrainConfig field is the config key of its name
TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
DEFAULTS = {"dataset": None, "out": "run", **TRAIN_DEFAULTS}
# a path resolves against the config file's directory, or as a flag against the cwd
PATH_KEYS = ("dataset", "out", "clusters_file")
# config key -> value parser, by its default's exact type; every key is also a flag
_PARSERS = {bool: _to_bool, int: int, float: float, str: str}
CONFIG_KEYS = {key: _path if key in PATH_KEYS else _PARSERS[type(default)]
               for key, default in DEFAULTS.items()}


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
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ConfigError(f"{p}:{lineno}: bad value for {key}: {e}") from None
    # resolve config-file-relative paths up front
    for key in PATH_KEYS:
        if cfg[key]:
            cfg[key] = str((p.parent / cfg[key]).resolve())
    return cfg


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for key, conv in CONFIG_KEYS.items():
        raw = getattr(args, key, None)
        if raw is None:
            continue
        try:
            cfg[key] = str(Path(raw).resolve()) if key in PATH_KEYS else conv(raw)
        except ValueError as e:
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


def _read_run(args):
    """A run command's config with its flags applied, and the TrainConfig of
    its keys: every key rule that reads no data runs before any output path
    is checked or the dataset loads."""
    cfg = apply_overrides(read_config(args.config), args)
    if not cfg.get("dataset"):
        raise ConfigError("no dataset path given (config key 'dataset' or --dataset)")
    return cfg, TrainConfig(**{k: cfg[k] for k in TRAIN_DEFAULTS})


def cmd_train(args) -> int:
    cfg_raw, cfg = _read_run(args)
    out = cfg_raw["out"]
    outs = result_out, curves_out, ckpt_out = f"{out}.result", f"{out}.curves.csv", f"{out}.ckpt"
    for path in outs:
        _check_out(path)
    data = load_dataset(cfg_raw["dataset"])
    spec = validate(cfg, data)
    if cfg.partition == "file" and LOSS_KINDS[cfg.loss].needs_clusters:
        make_partition("file", data, cfg.clusters, cfg.seed, cfg.clusters_file)
    _make_out_dir(result_out)
    result = train(cfg, data)
    write_result(result_out, cfg, spec, result)
    write_curves(curves_out, result)
    save_checkpoint(ckpt_out, spec, result.params)
    print(f"seconds_per_epoch={result.seconds_per_epoch:.4f}", file=sys.stderr)
    print(f"test_acc={result.test_acc!r} f1_micro={result.test_f1_micro!r} "
          f"ece={result.test_ece!r}")
    return 0


@contextmanager
def _ratios_rule(value):
    """A rule of the --ratios value: its ValueError is a bad --ratios."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"bad --ratios value {value!r}: {e}") from None


def cmd_attack(args) -> int:
    if args.num_seeds < 1:
        raise ConfigError(f"bad value for --seeds: expected an integer >= 1, got {args.num_seeds}")
    cfg_raw, cfg = _read_run(args)
    if cfg.loss not in LOSSES:  # the sweep trains each
        raise ConfigError(f"attack compares {' and '.join(LOSSES)}: loss must be "
                          f"{' or '.join(map(repr, LOSSES))}, got {cfg.loss!r}")
    with _ratios_rule(args.ratios):
        ratios = sweep_ratios(float(t) for t in args.ratios.split(","))
    _check_out(args.sweep_out)
    data = load_dataset(cfg_raw["dataset"])
    with _ratios_rule(args.ratios):
        check_ratios(data.graph, ratios)
    check_sweep(data, ratios, cfg, args.num_seeds)
    _make_out_dir(args.sweep_out)
    rows = robustness_sweep(data, ratios, cfg, args.num_seeds)
    write_sweep_csv(args.sweep_out, rows)
    for r in rows:
        print(f"ratio={r.ratio} loss={r.loss} mean_acc={r.mean_acc!r} std_acc={r.std_acc!r}")
    return 0


def cmd_gen_sbm(args) -> int:
    _check_out(args.out, directory=True)
    ds = gen_sbm(args.blocks, args.nodes_per_block, args.p_in, args.p_out,
                 args.feat_dim, args.feat_noise, args.seed)
    _make_out_dir(args.out)
    write_dataset(args.out, ds)
    print(f"wrote {ds.num_nodes} nodes, {ds.graph.num_edges} edges to {args.out}")
    return 0


def _add_config_flags(sub, skip=()):
    for key in CONFIG_KEYS:
        if key in skip:
            continue
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                         type=_path if key in PATH_KEYS else None,
                         help=f"override config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jcgraph")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("partition", help="partition a dataset and print cut stats")
    p.add_argument("--dataset", type=_path, required=True)
    p.add_argument("--method", default="metis-like",
                   choices=[m for m in PARTITION_METHODS if m != "file"])
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("train", help="train one run from a config file")
    p.add_argument("config", type=_path)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("attack", help="random-attack sweep comparing ce and jc")
    p.add_argument("config", type=_path)
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--seeds", dest="num_seeds", type=int, default=5)
    p.add_argument("--out", dest="sweep_out", type=_path, required=True)
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
    p.add_argument("--out", type=_path, required=True)
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
    except ValueError as e:  # ConfigError and DatasetFormatError among them
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, NumericsError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
