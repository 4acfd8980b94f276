"""The README's examples run as written, so they cannot go stale."""

import re
import shlex
from pathlib import Path

from tsvar import ExperimentConfig, parse_config
from tsvar.cli import FLAGS, _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
# each flag that writes an INI key, and that key
FLAG_KEYS = {flag: key for flag, (key, *_) in FLAGS.items() if key}


def blocks(language):
    found = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert found, f"README has no {language} block"
    return found


def test_readme_python_blocks_run(capsys):
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out   # the example prints its root and functional


def test_readme_config_block_resolves():
    for block in blocks("ini"):
        assert isinstance(parse_config(block), ExperimentConfig)


def test_readme_commands_parse():
    commands = [shlex.split(line, comments=True) for block in blocks("sh")
                for line in block.splitlines() if line.startswith("tsvar ")]
    assert len(commands) >= 6
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1]


def test_readme_flag_table_matches_flag_keys():
    rows = re.findall(r"^\| `(--[\w-]+)` \| `\[(\w+)\] (\w+)`", README.read_text(), re.MULTILINE)
    assert len(rows) == len(FLAG_KEYS)
    assert {flag: (section, key) for flag, section, key in rows} == FLAG_KEYS
