"""The README's library examples run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_library_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_usage_block_is_the_cli_help():
    from mdiqkd.cli import USAGE

    assert f"```\n{USAGE}```\n" in README.read_text(encoding="utf-8")


def test_readme_config_table_gives_every_key_and_its_default():
    """Each row names keys and their defaults in backticks, as many of
    one as of the other; each default, parsed as that key's config line
    would be, is the default of the field the key sets."""
    from mdiqkd.config import _KEYS

    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            keys, defaults = (re.findall(r"`([^`]+)`", cell) for cell in line.split(" | ")[:2])
            assert len(keys) == len(defaults), line
            rows.update(zip(keys, defaults))
    assert sorted(rows) == sorted(_KEYS)
    for key, (target, field, parse) in _KEYS.items():
        assert parse(key, rows[key]) == getattr(target(), field), key
