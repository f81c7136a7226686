"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  The
output directory for relative paths comes from --out, falling back to the
RISIM_OUT_DIR environment variable, then the working directory.
"""

import dataclasses
import os
import sys
from pathlib import Path

import click

from . import harness, im_schemes
from .errors import ConfigError


def _out_base(out) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get("RISIM_OUT_DIR", "."))


def _load(config_path, seed, experiment) -> harness.ExperimentConfig:
    config = harness.parse_config(config_path)
    if seed is not None:
        if seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        config = dataclasses.replace(config, seed=seed)
    if config.experiment != experiment:
        raise ConfigError(f"config is a {config.experiment!r} experiment, expected {experiment!r}")
    return config


def _resolve_output(config, out, default_name):
    base = _out_base(out)
    base.mkdir(parents=True, exist_ok=True)
    name = config.output or default_name
    path = Path(name)
    return path if path.is_absolute() else base / path


config_option = click.option("--config", "config_path", required=True,
                             type=click.Path(), help="experiment JSON file")
seed_option = click.option("--seed", type=int, default=None,
                           help="override the config seed")
out_option = click.option("--out", type=click.Path(), default=None,
                          help="output directory (default $RISIM_OUT_DIR or .)")


@click.group()
def cli():
    """Metasurface index-modulation link simulator."""


@cli.command()
@config_option
@seed_option
@out_option
@click.option("--threads", type=int, default=1, show_default=True,
              help="worker threads over trial batches (results are identical)")
def ber(config_path, seed, out, threads):
    """Monte Carlo bit-error-rate sweep."""
    config = _load(config_path, seed, "ber")
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    curve = harness.run_ber(config, threads=threads)
    path = _resolve_output(config, out, "ber.csv")
    curve.to_csv(path)
    click.echo(f"wrote {path}")


@cli.command()
@config_option
@seed_option
@out_option
def capacity(config_path, seed, out):
    """Ergodic capacity sweep over antenna counts and SNR."""
    config = _load(config_path, seed, "capacity")
    rows = harness.run_capacity(config)
    path = _resolve_output(config, out, "capacity.csv")
    harness.capacity_csv(rows, path)
    click.echo(f"wrote {path}")


@cli.command()
@config_option
@seed_option
@out_option
def pattern(config_path, seed, out):
    """Far-field pattern exports for commanded scan angles."""
    config = _load(config_path, seed, "pattern")
    files = harness.run_pattern(config, _out_base(out))
    for f in files:
        click.echo(f"wrote {f}")


@cli.command()
@config_option
@seed_option
@out_option
def harmonics(config_path, seed, out):
    """Harmonic spectrum exports (single tones, shifts, multi-tone)."""
    config = _load(config_path, seed, "harmonics")
    files = harness.run_harmonics(config, _out_base(out))
    for f in files:
        click.echo(f"wrote {f}")


@cli.command()
@config_option
@out_option
def codebook(config_path, out):
    """Dump a scheme's full codeword table for audit."""
    config = _load(config_path, None, "codebook")
    path = _resolve_output(config, out, "codebook.csv")
    harness.codebook_csv(config.scheme, path)
    click.echo(f"wrote {path}")


@cli.command()
@config_option
def rate(config_path):
    """Print the throughput of the configured scheme."""
    config = _load(config_path, None, "rate")
    click.echo(f"{im_schemes.rate_of(config.scheme):.6f}")


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
