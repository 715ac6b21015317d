"""The README's command-line reference against the parser it documents."""

import argparse
import re
from pathlib import Path

from msfusion.cli import build_parser
from msfusion.ingest import RunConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_table_lists_each_subcommands_optional_flags():
    # Required flags are the input paths; --out and -h are left out.
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", README, re.MULTILINE))
    subparsers = _subparsers()
    assert sorted(rows) == sorted(subparsers)
    for name, sub in subparsers.items():
        flags = {
            flag
            for action in sub._actions
            if not action.required
            for flag in action.option_strings
            if flag not in ("-h", "--help", "--out")
        }
        assert set(re.findall(r"`(--[\w-]+)`", rows[name])) == flags, name


def test_config_key_list_is_the_run_config_keys():
    paragraph = README[README.index("`--config file`") :]
    listed = paragraph[paragraph.index("(") + 1 : paragraph.index(")")]
    assert re.findall(r"`(\w+)`", listed) == list(RunConfig().echo())
