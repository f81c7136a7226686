"""Command-line front end: one command per experiment of ``harness.EXPERIMENTS``,
taking ``--config`` and the options its config type declares.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime error or
interrupt.  The output directory for relative paths comes from --out,
falling back to the RISIM_OUT_DIR environment variable, then the working
directory.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, declared_keys

OPTIONS = {   # every option an experiment may declare: (type, default, help)
    "--seed": (int, None, "override the config seed"),
    "--out": (str, None, "output directory (default $RISIM_OUT_DIR or .)"),
    "--threads": (int, 1, "worker threads over trial batches (results are identical) "
                          "[default: 1]"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="risim", allow_abbrev=False,
                                     description="Metasurface index-modulation link simulator.")
    commands = parser.add_subparsers(dest="command", required=True)
    for kind in harness.EXPERIMENTS.values():
        # --help declared as an option like the others, so every help line
        # starts with "  --"; no option may be abbreviated
        command = commands.add_parser(kind.experiment, help=kind.help, description=kind.help,
                                      add_help=False, allow_abbrev=False)
        command.add_argument("--config", dest="path", required=True, help="experiment JSON file")
        for name in kind.options:
            kind_of, default, help_text = OPTIONS[name]
            command.add_argument(name, type=kind_of, default=default, help=help_text)
        command.add_argument("--help", action="help", help="show this message and exit")
    return parser


def _run(command, path, seed=None, out=None, threads=1):
    config = harness.parse_config(path, expected=command)
    if seed is not None:   # an override obeys the rule of the key it replaces
        declared_keys(type(config))["seed"][1].check((seed,), "--seed", (int,))
        config = dataclasses.replace(config, seed=seed)
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    out_base = Path(out if out is not None else os.environ.get("RISIM_OUT_DIR", "."))
    for line in config.run(out_base, threads):
        print(line)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # --help exits 0, a usage error 2
        return exc.code
    try:
        _run(**vars(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(file=sys.stderr)   # end the line the terminal's ^C is on
        return 3
    except Exception as exc:  # runtime failures map to a distinct code
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
