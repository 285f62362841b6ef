"""Batch front-end: run cycle sweeps from a config file and emit result tables.

Usage:

  cdotto run --config runs.cfg [--preset fig2|fig3|fig4|fig5] [--out DIR]
             [--format csv|json] [--workers K] [--steps-per-unit-time S]

Exactly the columns below are written, one row per grid point, floats in
shortest round-trip decimals so reruns are byte-identical.  Per-point
diagnostics (wall time and its split over the stroke layers, Qc and steps
per step-doubling pass, the error estimate of a converging run's Qc, trace
and purity drift, AGP fallbacks and direct solves, the AGP factorization
time, the smallest endpoint gap) go to ``diagnostics.json``, and a JSON
manifest (config digest, timings, per-point failures, the diagnostics
file) is written last.  Each finished point prints a progress line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

# one BLAS thread per process unless the environment says otherwise (see
# cycle.sweep); set before the package imports, which load numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import __version__  # noqa: E402
from .config import PRESETS, config_digest, parse_config_text, resolve_blocks  # noqa: E402
from .cycle import CONVERGE_TOL, CycleReport, RunOptions, default_workers, sweep  # noqa: E402
from .errors import ConfigError  # noqa: E402

CSV_COLUMNS = (
    "N", "p", "tau1", "tau3", "tau2", "tau4", "Tc", "Th",
    "Qc", "Qh", "W1", "W3", "W0_total", "WCD_total", "J",
    "cop", "cop_defined", "cop_carnot", "Qc_adiabatic",
    "cost1", "cost3", "steps", "converged",
)


@dataclass(frozen=True)
class RunManifest:
    tool_version: str
    config_digest: str
    grid_size: int
    workers: int
    started: str
    finished: str
    failures: list
    options: dict
    diagnostics: str = "diagnostics.json"


def _cell(value) -> str:
    if value is None:
        return "unchecked"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_values(report: CycleReport) -> dict:
    return {col: getattr(report, "n_sites" if col == "N" else col) for col in CSV_COLUMNS}


def emit_results(reports, fmt: str, out_dir: Path, manifest: RunManifest):
    """Write the result table, the diagnostics and then the manifest; returns the paths.

    The diagnostics file, named by the manifest, lists one object per
    completed point: its grid index and label, then ``report.diagnostics``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_row_values(r) for r in reports if r is not None]
    if fmt == "csv":
        results_path = out_dir / "results.csv"
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(
                "" if (col == "cop" and row[col] is None) else _cell(row[col])
                for col in CSV_COLUMNS
            ))
        results_path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        results_path = out_dir / "results.json"
        with results_path.open("w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    points = [{"index": idx, "label": r.label, **r.diagnostics}
              for idx, r in enumerate(reports) if r is not None]
    with (out_dir / manifest.diagnostics).open("w") as fh:
        json.dump(points, fh, indent=1)
        fh.write("\n")
    manifest_path = out_dir / "manifest.json"
    with manifest_path.open("w") as fh:
        json.dump(asdict(manifest), fh, indent=1)
        fh.write("\n")
    return results_path, manifest_path


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdotto",
        description="Finite-time quantum Otto refrigerator sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a sweep and write result tables")
    run.add_argument("--config", type=Path, help="key=value config file")
    run.add_argument("--preset", choices=sorted(PRESETS),
                     help="built-in figure grid; --config keys override it")
    run.add_argument("--out", type=Path, default=Path("results"),
                     help="output directory (default: results)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="worker processes (default: available parallelism)")
    run.add_argument("--steps-per-unit-time", type=_positive_float, default=None,
                     help="fix the integrator step rate and skip the "
                          "step-doubling convergence check; steps per stroke "
                          f"stay clipped to [{RunOptions.min_steps}, "
                          f"{RunOptions.max_steps}]")
    return parser


def _resolve_inputs(args):
    blocks: list[dict] = []
    if args.preset:
        blocks = [parse_config_text(text) for text in PRESETS[args.preset]]
    overrides: dict = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text "
                              f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None
        overrides = parse_config_text(text)
    if blocks:
        for block in blocks:
            # stroke times given by the config replace the preset's in either form
            if overrides.keys() & {"tau", "tau1", "tau3"}:
                for key in ("tau", "tau1", "tau3"):
                    block.pop(key, None)
            block.update(overrides)
    elif overrides or args.config is not None:
        blocks = [overrides]
    else:
        raise ConfigError("one of --config or --preset is required")
    return blocks


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        blocks = _resolve_inputs(args)
        configs = resolve_blocks(blocks)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.steps_per_unit_time is not None:
        options = RunOptions(steps_per_unit_time=args.steps_per_unit_time,
                             converge=False)
    else:
        options = RunOptions()
    options_echo = {**asdict(options), "converge_tol": CONVERGE_TOL}
    digest = config_digest(blocks, options_echo)
    workers = args.workers or default_workers()

    # fail on an unusable output directory before any cycle is computed
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        probe = args.out / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 2

    finished_points = 0

    def progress(idx, report, error):
        nonlocal finished_points
        finished_points += 1
        head = f"[{finished_points}/{len(configs)}] {configs[idx].label}"
        if error is not None:
            print(f"{head}: failed", file=sys.stderr, flush=True)
        else:
            diag = report.diagnostics
            print(f"{head}: Qc={report.Qc:.6g} steps={report.steps} "
                  f"passes={len(diag['pass_qc'])} {diag['wall_s']:.2f} s",
                  file=sys.stderr, flush=True)

    started = datetime.now(timezone.utc).isoformat()
    result = sweep(configs, options, workers=workers, on_point=progress)
    finished = datetime.now(timezone.utc).isoformat()

    manifest = RunManifest(
        tool_version=__version__,
        config_digest=digest,
        grid_size=len(configs),
        workers=workers,
        started=started,
        finished=finished,
        failures=[{"index": idx, "label": configs[idx].label, "error": msg}
                  for idx, msg in result.failures],
        options=options_echo,
    )
    results_path, manifest_path = emit_results(result.reports, args.format,
                                               args.out, manifest)
    done = len(configs) - len(result.failures)
    print(f"{done}/{len(configs)} grid points completed")
    for idx, msg in result.failures:
        print(f"  failed [{idx}] {configs[idx].label}: {msg}", file=sys.stderr)
    print(f"results:  {results_path}")
    print(f"manifest: {manifest_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
