"""The README's Python examples run as written, through the public names,
and its config-key table names the keys the config parsers accept."""

import re
from pathlib import Path

from rsnsim import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_config_keys_table_matches_parsers():
    table = README.read_text().split("### Config keys", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        command, keys = (cell.strip() for cell in line.strip("|").split("|"))
        # parenthesized backticks are values, such as decay_mode's
        names = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys)))
        if keys.startswith("sweep keys +"):
            names |= rows["sweep"]
        rows[command] = names
    assert rows == {"generate": config.GENERATE_KEYS,
                    "simulate": config.SIMULATE_KEYS,
                    "sweep": config.SWEEP_KEYS,
                    "hierarchy": config.HIERARCHY_KEYS}
