"""The `repro` command-line surface, pinned option by option.

``cli_surface.json`` records every parser node's options (option
strings, default, type, choices, required, nargs, const and action
class) but not help wording or option order, so a change to how the
parser is built must leave what it accepts unchanged.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("cli_surface.json")


class _Built(Exception):
    def __init__(self, parser):
        super().__init__()
        self.parser = parser


def root_parser(monkeypatch) -> argparse.ArgumentParser:
    """The parser ``main`` builds, captured at its ``parse_args``."""
    def capture(self, *args, **kwargs):
        raise _Built(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Built) as built:
        main(["info"])
    return built.value.parser


def _option(action) -> dict:
    choices = action.choices
    if choices is not None:
        choices = sorted(choices) if isinstance(choices, dict) \
            else list(choices)
    return {
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": choices,
        "required": action.required,
        "nargs": action.nargs,
        "const": action.const,
        "action": type(action).__name__,
    }


def surface(parser, path=()) -> dict:
    """``{"<command path>": {"<option strings or dest>": {...}}}`` for
    ``parser`` and every parser below it."""
    node = {}
    nodes = {" ".join(path): node}
    for action in parser._actions:
        node[", ".join(sorted(action.option_strings)) or action.dest] = \
            _option(action)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nodes.update(surface(sub, path + (name,)))
    return nodes


def test_surface_matches_golden(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert surface(root_parser(monkeypatch)) == golden
