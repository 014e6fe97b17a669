"""Command-line front end.

    quoptics run <scenario> [--config FILE] [--out PATH]
                 [--format csv|json|gnuplot] [--seed N]
    quoptics list
    quoptics sweep <scenario> --param NAME --values V1,V2,... [options]

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 internal.
Config files are UTF-8 JSON objects matching the scenario schema printed by
`list`; unknown keys are rejected.  The only environment variable honored is
QUOPTICS_OUT_DIR (default output directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .operators import QuopticsError
from .scenarios import REGISTRY, ConfigError, run_scenario, sweep
from .serialize import (
    SeriesArtifact,
    artifact_to_csv,
    artifact_to_gnuplot,
    artifact_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _render(art: SeriesArtifact, fmt: str) -> str:
    if fmt == "json":
        return artifact_to_json(art)
    if fmt == "csv":
        return artifact_to_csv(art)
    if fmt == "gnuplot":
        if "grid" not in art.metadata:
            raise ConfigError(
                f"{art.scenario} does not produce a phase-space grid; "
                "use --format csv or json")
        return artifact_to_gnuplot(art)
    raise ConfigError(f"unknown format {fmt!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get("QUOPTICS_OUT_DIR")
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_list() -> int:
    for name in sorted(REGISTRY):
        schema, _, reproduces = REGISTRY[name]
        sys.stdout.write(f"{name}\n")
        for pname, par in schema.items():
            extras = []
            if par.low is not None:
                extras.append(f">= {par.low}")
            if par.high is not None:
                extras.append(f"<= {par.high}")
            if par.choices:
                extras.append("one of " + "/".join(map(str, par.choices)))
            extra = f" ({', '.join(extras)})" if extras else ""
            sys.stdout.write(
                f"    {pname}: {par.kind.__name__} = {par.default}{extra}\n")
        for line in reproduces:
            sys.stdout.write(f"    reproduces: {line}\n")
    return EXIT_OK


def _parse_values(text: str) -> list:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(float(chunk))
        except ValueError:
            out.append(chunk)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quoptics", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario")
    run_p.add_argument("--config", default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", default="json",
                       choices=("csv", "json", "gnuplot"))
    run_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="print the scenario registry")

    sweep_p = sub.add_parser("sweep", help="run a scenario over a value list")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True)
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--format", default="json", choices=("csv", "json"))
    sweep_p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            cfg = _load_config(args.config)
            art = run_scenario(args.scenario, cfg, seed=args.seed)
            _emit(_render(art, args.format), args.out)
            return EXIT_OK
        if args.command == "sweep":
            if args.format == "csv" and args.out is None:
                raise ConfigError("csv sweeps need --out")
            cfg = _load_config(args.config)
            values = _parse_values(args.values)
            arts = sweep(args.scenario, args.param, values, cfg,
                         seed=args.seed)
            if args.format == "json":
                body = "[\n" + ",\n".join(artifact_to_json(a)
                                          for a in arts) + "\n]\n"
                _emit(body, args.out)
            else:
                stem, ext = os.path.splitext(args.out)
                for idx, art in enumerate(arts):
                    _emit(artifact_to_csv(art), f"{stem}_{idx:03d}{ext}")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        sys.stderr.write(f"configuration error: {err}\n")
        return EXIT_CONFIG
    except QuopticsError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    except Exception as err:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {err}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
