"""README's table of config keys says what the code does, and the keys are
the run config's."""

from dataclasses import fields
from pathlib import Path

from jcgraph.cli import CONFIG_KEYS, DEFAULTS
from jcgraph.trainer import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def key_table() -> list[tuple[str, str]]:
    """(key, default text) for each key of README's "Keys and defaults"
    table; a row names its keys, and their defaults, as comma lists."""
    lines = README.read_text().split("\n")
    start = lines.index("| key | default | meaning |") + 2  # past the header and |---|
    pairs = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, defaults = line.strip("|").split("|")[:2]
        keys, defaults = keys.split(","), defaults.split(",")
        assert len(keys) == len(defaults), line
        pairs += [(k.strip().strip("`"), v.strip().strip("`")) for k, v in zip(keys, defaults)]
    return pairs


def test_key_table_lists_every_key_once_with_its_default():
    pairs = key_table()
    assert sorted(key for key, _ in pairs) == sorted(CONFIG_KEYS)
    for key, text in pairs:
        value = None if text in ("(required)", "none") else CONFIG_KEYS[key](text)
        assert value == DEFAULTS[key], key


def test_config_keys_are_the_run_config_fields():
    # every key has a parser and a default, and every key but the two paths
    # is a TrainConfig field: a key cannot drift from the config
    assert set(CONFIG_KEYS) == set(DEFAULTS) == {"dataset", "out"} | {
        f.name for f in fields(TrainConfig)}
