"""Command-line front end: one command per experiment of ``harness.EXPERIMENTS``,
taking ``--config`` and the options its config type declares.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  The
output directory for relative paths comes from --out, falling back to the
RISIM_OUT_DIR environment variable, then the working directory.
"""

import dataclasses
import os
import sys
from pathlib import Path

import click

from . import harness
from .errors import ConfigError, declared_keys

OPTIONS = {   # every option an experiment may declare
    "--seed": click.option("--seed", type=int, default=None, help="override the config seed"),
    "--out": click.option("--out", type=click.Path(), default=None,
                          help="output directory (default $RISIM_OUT_DIR or .)"),
    "--threads": click.option("--threads", type=int, default=1, show_default=True,
                              help="worker threads over trial batches (results are identical)"),
}


@click.group()
def cli():
    """Metasurface index-modulation link simulator."""


def _command(kind):
    def command(config_path, seed=None, out=None, threads=1):
        config = harness.parse_config(config_path)
        if seed is not None:   # an override obeys the rule of the key it replaces
            declared_keys(type(config))["seed"][1].check((seed,), "--seed", (int,))
            config = dataclasses.replace(config, seed=seed)
        if config.experiment != kind.experiment:
            raise ConfigError(f"config is a {config.experiment!r} experiment, "
                              f"expected {kind.experiment!r}")
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
        out_base = Path(out if out is not None else os.environ.get("RISIM_OUT_DIR", "."))
        for line in config.run(out_base, threads):
            click.echo(line)

    for name in reversed(kind.options):
        command = OPTIONS[name](command)
    command = click.option("--config", "config_path", required=True, type=click.Path(),
                           help="experiment JSON file")(command)
    cli.command(kind.experiment, help=kind.help)(command)


for _kind in harness.EXPERIMENTS.values():
    _command(_kind)


def main(argv=None) -> int:
    try:
        cli(args=argv, standalone_mode=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 3
    except Exception as exc:  # runtime failures map to a distinct code
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
