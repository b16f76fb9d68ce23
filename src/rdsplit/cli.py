"""Command line front end.

Subcommands map one-to-one onto the experiment runners; every invocation
takes a config file and an output directory, writes CSV results, and echoes
the resolved config of a run that passed its checks to ``<out>/config.resolved``
(a config rejected with exit 2 leaves --out as it was). Exit codes: 0 on
success, 2 for configuration problems (a config file that is not UTF-8 text,
or an --out that is a file or lies under one, included), for an output file
that cannot be written and for an experiment too large to allocate (--out may
exist already where the run itself is what fails), 3 when a solve fails
(non-convergence or loss of positivity), also where its config.resolved then
cannot be written.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import InvalidConfig, InvalidInput, NonConvergence, PositivityViolation
from .harness import (parse_config, run_cauchy_convergence, run_energy_trace,
                      run_ode_convergence, run_single, write_resolved_config)

log = logging.getLogger("rdsplit")

_KIND_FOR_COMMAND = {
    "run": "single_run",
    "ode-convergence": "ode_convergence",
    "cauchy": "cauchy_convergence",
    "energy-trace": "energy_trace",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsplit",
        description="Structure-preserving reaction-diffusion solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in _KIND_FOR_COMMAND.items():
        p = sub.add_parser(command, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument("--verbose", action="store_true", help="log progress to stderr")
        if command == "cauchy":
            p.add_argument("--threads", type=int, default=1,
                           help="independent resolutions solved concurrently")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the rdsplit logger only, and only for this call: the root logger is the caller's
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args) -> int:
    code = 0
    try:
        cfg = parse_config(args.config)
        out_dir = Path(args.out)
        log.info("running %s into %s", cfg.kind, out_dir)
        try:
            # each runner checks the config's kind, and the threads, before --out exists
            if args.command == "run":
                run_single(cfg, out_dir)
            elif args.command == "ode-convergence":
                run_ode_convergence(cfg, out_dir)
            elif args.command == "cauchy":
                run_cauchy_convergence(cfg, out_dir, threads=args.threads)
            else:
                run_energy_trace(cfg, out_dir)
        except (NonConvergence, PositivityViolation) as e:
            # a solve starts only once the runner's checks have passed and out_dir exists
            print(f"rdsplit: solve failed: {e}", file=sys.stderr)
            code = 3
        write_resolved_config(cfg, out_dir / "config.resolved")
    except (InvalidConfig, InvalidInput) as e:
        print(f"rdsplit: invalid config: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"rdsplit: cannot allocate: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # an output that cannot be written; what was written before it stays
        print(f"rdsplit: cannot write output: {e}", file=sys.stderr)
        return code or 2
    if not code:
        log.info("done")
    return code


if __name__ == "__main__":
    sys.exit(main())
