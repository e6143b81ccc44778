"""Command-line front end: run verifiers, the separation staircase, and
curve sampling, writing a JSON manifest that captures every knob."""

import datetime
import json
import math
import os
import pathlib
import sys
import time

import click

from . import __version__
from .bounds import DEFAULT_A
from .separation import (
    DEFAULT_MAX_ITERATIONS,
    SeparationConfig,
    emit_curves,
    run_separation,
)
from .verifiers import VERIFIERS, verify_all


def _g(x):
    """Round-trip decimal form (17 significant digits)."""
    return float(f"{x:.17g}")


def _jsonify(obj):
    if isinstance(obj, float):
        return _g(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _out_dir(out):
    path = pathlib.Path(out or os.environ.get("WRIGHT_OUT_DIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _max_steps(value):
    if value is not None:
        return value
    env = os.environ.get("WRIGHT_MAX_STEPS")
    return int(env) if env else DEFAULT_MAX_ITERATIONS


def _write_manifest(out, command, config, verdicts=(), reports=()):
    manifest = {
        "command": command,
        "config": config,
        "verdicts": [v.to_dict() for v in verdicts],
        "reports": [r.to_dict() for r in reports],
        "environment": {
            "version": __version__,
            "endpoint_precision": "binary64",
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
        },
    }
    path = _out_dir(out) / f"{command}-manifest.json"
    path.write_text(json.dumps(_jsonify(manifest), indent=2) + "\n")
    return path


@click.group()
def main():
    """Certified bounds for the delayed negative-feedback equation."""


@main.command()
@click.argument("selector")
@click.option("--out", default=None, help="Output directory for the "
              "manifest (or WRIGHT_OUT_DIR).")
def verify(selector, out):
    """Run one named verifier, or 'all'."""
    if selector == "all":
        verdicts = verify_all()
    elif selector in VERIFIERS:
        verdicts = [VERIFIERS[selector]()]
    else:
        raise click.UsageError(
            f"unknown selector {selector!r}; choose from "
            f"{', '.join(VERIFIERS)} or 'all'")
    path = _write_manifest(out, "verify", {"selector": selector}, verdicts)
    for v in verdicts:
        click.echo(f"{v.lemma_id}: {'holds' if v.holds else 'FAILED'} "
                   f"({v.runtime_ms:.0f} ms)")
    click.echo(f"manifest: {path}")
    sys.exit(0 if all(v.holds for v in verdicts) else 1)


@main.command()
@click.option("--from", "m_start", type=float, required=True)
@click.option("--to", "m_stop", type=float, required=True)
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--n", type=int, default=6, show_default=True)
@click.option("--max-steps", type=int, default=None,
              help="Iteration budget (or WRIGHT_MAX_STEPS).")
@click.option("--a", type=float, default=DEFAULT_A, show_default=True)
@click.option("--out", default=None)
def separate(m_start, m_stop, k, n, max_steps, a, out):
    """Run the staircase separation on [--to, --from]."""
    try:
        cfg = SeparationConfig(m_start, m_stop, k, n,
                               _max_steps(max_steps), a)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = run_separation(cfg)
    _write_manifest(out, "separate", cfg.to_dict(), reports=[report])
    status = "separated" if report.separated else \
        f"NOT separated ({report.failure_reason})"
    # final_m is None when m_k failed on the last rung.
    final_m = "none" if report.final_m is None else f"{report.final_m:.17g}"
    click.echo(f"{status}: {report.iterations} iterations, "
               f"final M={report.final_M:.17g} m={final_m} "
               f"in {report.elapsed:.1f} s")
    sys.exit(0 if report.separated else 1)


@main.command()
@click.argument("which",
                type=click.Choice(["Lhat_lower", "A", "theta_n", "m_k"]))
@click.option("--grid-start", type=float, required=True)
@click.option("--grid-stop", type=float, required=True)
@click.option("--points", type=int, default=100, show_default=True)
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--n", type=int, default=6, show_default=True)
@click.option("--a", type=float, default=DEFAULT_A, show_default=True)
@click.option("--out", default=None)
def curves(which, grid_start, grid_stop, points, k, n, a, out):
    """Sample a certified curve to a whitespace-delimited data file."""
    if points < 0:
        raise click.UsageError("--points must be nonnegative")
    if points == 0:
        grid = []
    elif points == 1:
        grid = [grid_start]
    else:
        # The last abscissa is grid_stop itself: start + (points-1)*step
        # can round past it, out of the curve's window.
        step = (grid_stop - grid_start) / (points - 1)
        grid = [grid_start + i * step for i in range(points - 1)]
        grid.append(grid_stop)
    rows = emit_curves(grid, which, k, n, a)
    path = _out_dir(out) / f"curve-{which}.dat"
    with path.open("w") as fh:
        fh.write("x lower upper\n")
        for row in rows:
            if row.error is not None:
                fh.write(f"# x={row.x:.17g} error: {row.error}\n")
            else:
                fh.write(f"{row.x:.17g} {row.lower:.17g} "
                         f"{row.upper:.17g}\n")
    _write_manifest(out, "curves", {
        "which": which, "grid_start": grid_start, "grid_stop": grid_stop,
        "points": points, "k": k, "n": n, "a": a,
        "data_file": str(path),
    })
    bad = sum(1 for r in rows if r.error is not None
              or (math.isnan(r.lower) and math.isnan(r.upper)))
    click.echo(f"wrote {len(rows) - bad} rows to {path}"
               + (f" ({bad} failed abscissas)" if bad else ""))


if __name__ == "__main__":
    main()
