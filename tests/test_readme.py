"""The README's names and command-line reference against the package and
the parser they document."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import msfusion
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


def _owners():
    # The package, its modules, and the classes they define.
    modules = [msfusion] + [
        importlib.import_module(f"msfusion.{m.name}") for m in pkgutil.iter_modules(msfusion.__path__)
    ]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("msfusion")
    ]
    return modules + classes


def _resolves(path, owners):
    # Some owner holds the first segment, and each later one is an
    # attribute of the one before it.
    for owner in owners:
        for segment in path.split("."):
            if not hasattr(owner, segment):
                break
            owner = getattr(owner, segment)
        else:
            return True
    return False


def test_overview_names_exist_in_the_package():
    # Backticked identifiers before "## Install" that look like library
    # names (holding "_" or capitalised); lowercase words such as
    # strategies, subcommands and numpy names are skipped.
    overview = README[: README.index("## Install")]
    names = {n for n in re.findall(r"`([A-Za-z_][\w.]*)`", overview) if "_" in n or n[0].isupper()}
    assert len(names) >= 20
    owners = _owners()
    assert [n for n in sorted(names) if not _resolves(n, owners)] == []
