"""Command-line entry point.

Subcommands map onto harness tasks:

  estimate-cov            covariance with a known condition bound
  estimate-cov-unbounded  covariance with no condition bound ((eps,delta)-DP)
  estimate-mean           preconditioned mean estimation
  learn-gaussian          joint mean + covariance
  learn-product           Boolean product distribution
  attack                  tracing attack against a chosen mechanism
  sweep                   rerun a base task over a list of sample sizes

Flags override values from --config (a single JSON document).  The
--zero-noise flag disables all mechanism noise and therefore all privacy;
it refuses to run without --i-understand-no-privacy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import PrivestError
from .harness import ExperimentConfig, budget_ledger_check, run_experiment

_SUBCOMMAND_TASK = {
    "estimate-cov": "gaussian-cov",
    "estimate-cov-unbounded": "gaussian-cov-unbounded",
    "estimate-mean": "gaussian-mean",
    "learn-gaussian": "gaussian-full",
    "learn-product": "product",
    "attack": "attack",
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="base seed (trial t uses seed+t)")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--rho", type=float, help="zCDP budget")
    p.add_argument("--eps", type=float, help="approximate-DP epsilon")
    p.add_argument("--delta", type=float, help="approximate-DP delta")
    p.add_argument("--alpha", type=float, help="target accuracy")
    p.add_argument("--beta", type=float, help="failure probability")
    p.add_argument("--n", type=int, help="samples per trial")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--kappa", type=float, help="condition-number bound")
    p.add_argument("--R", type=float, help="mean-norm bound")
    p.add_argument("--out", help="output directory for report.csv / report.json")
    p.add_argument("--zero-noise", action="store_true", default=None,
                   help="disable mechanism noise (voids privacy; test only)")
    p.add_argument("--i-understand-no-privacy", action="store_true",
                   help="required acknowledgement for --zero-noise")
    p.add_argument("--samples-csv", action="store_true", default=None,
                   help="echo generated samples to samples.csv")
    p.add_argument("--header", action="store_true", default=None,
                   help="write a header row in samples.csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="privest",
                                 description="Private estimation experiments")
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_TASK:
        p = sub.add_parser(name, parents=[common])
        if name == "learn-product":
            p.add_argument("--m", type=int, help="rows per learner block")
            p.add_argument("--flip-heavy", action="store_true", default=None,
                           help="bit-flip heavy coordinates first (rho/10 vote)")
            p.add_argument("--p", type=float, nargs="+",
                           help="true per-coordinate means")
        if name == "attack":
            p.add_argument("--mechanism",
                           choices=["empirical-mean", "true-mean", "ppde"])
            p.add_argument("--attack-trials", type=int)
            p.add_argument("--m", type=int, help="rows per ppde block")
        if name in ("estimate-cov", "estimate-cov-unbounded", "learn-gaussian"):
            p.add_argument("--spectrum", type=float, nargs="+",
                           help="true covariance eigenvalues (length d)")
    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--task", choices=sorted(set(_SUBCOMMAND_TASK.values())),
                   required=False, help="base task to sweep")
    p.add_argument("--sweep-n", type=int, nargs="+",
                   help="sample sizes to sweep over")
    p.add_argument("--spectrum", type=float, nargs="+")
    p.add_argument("--m", type=int)
    return ap


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw.update(json.load(fh))
    if args.command != "sweep":
        raw["task"] = _SUBCOMMAND_TASK[args.command]
    # every flag's dest is the name of the config field it overrides
    fields = ExperimentConfig.__dataclass_fields__
    raw.update({k: v for k, v in vars(args).items()
                if k in fields and v is not None})
    if raw.get("zero_noise") and not args.i_understand_no_privacy:
        raise PrivestError(
            "--zero-noise voids every privacy guarantee; "
            "pass --i-understand-no-privacy to confirm")
    return ExperimentConfig.from_dict(raw)


# main's one parser per process: parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run_experiment(cfg)
    except PrivestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, mismatches = budget_ledger_check(report)
    for name, agg in sorted(report.aggregates.items()):
        print(f"{name}: median={agg['median']:.6g} "
              f"iqr=[{agg['q25']:.6g}, {agg['q75']:.6g}]")
    if not ok:
        print(f"budget ledger mismatch: {mismatches}", file=sys.stderr)
        return 3
    if cfg.out:
        print(f"wrote {cfg.out}/report.csv and report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
