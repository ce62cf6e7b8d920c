"""Command-line entry point.

One subcommand per scenario plus ``verify``, which runs every scenario
with its default configuration and exits nonzero if any verdict fails.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    default_config,
    load_config,
    run_scenario,
)


def _add_common(parser):
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--out", help="output directory for reports/CSV/snapshots")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ekwave",
        description="Pseudospectral laboratory for capillary quantum fluids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="JSON config file (defaults built in)")
        _add_common(p)
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path config override, repeatable")
    # verify always runs the default configs: it takes no --config or --override
    v = sub.add_parser("verify", help="run every scenario with defaults")
    _add_common(v)
    return parser


def _resolve_config(name, args) -> ScenarioConfig:
    if args.config:
        cfg = load_config(args.config)
        if cfg.scenario != name:
            raise ConfigError(
                f"config is for scenario {cfg.scenario!r}, expected {name!r}"
            )
    else:
        cfg = default_config(name)
    if args.seed is not None:
        cfg.seed = args.seed
    for ov in args.override:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not KEY=VALUE")
        key, _, value = ov.partition("=")
        cfg.apply_override(key, value)
    # overrides bypass the schema, so check the result as a whole and
    # build every object the values configure
    cfg = ScenarioConfig.from_dict(cfg.to_dict())
    try:
        cfg.build_grid()
        cfg.build_laws()
        cfg.build_solver()
        cfg.build_initial_spec()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config values: {exc}") from exc
    return cfg


def _print_verdicts(report):
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {report.scenario}/{v['name']}: value={v['value']} "
              f"target={v['target']} tol={v['tolerance']} ({v['provenance']})")
    for err in report.errors:
        print(f"[FAIL] {report.scenario}: {err}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            ok = True
            for name in SCENARIOS:
                cfg = default_config(name)
                if args.seed is not None:
                    cfg.seed = args.seed
                report = run_scenario(cfg, out_dir=args.out)
                _print_verdicts(report)
                ok = ok and report.all_passed
            return 0 if ok else 1
        cfg = _resolve_config(args.command, args)
        report = run_scenario(cfg, out_dir=args.out)
        _print_verdicts(report)
        return 0 if report.all_passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
