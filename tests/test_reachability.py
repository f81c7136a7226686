"""Every definition of src/risim is reached from an entry point, or listed
with its reason in tools/reachability.py."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_definition_is_reached_or_listed():
    lines = load_tool().report()
    assert not lines, "\n".join(lines)
