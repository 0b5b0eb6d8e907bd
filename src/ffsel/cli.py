"""Command-line front end.

Subcommands: estimate (per-feature relevance), select (one selection run),
benchmark (full sweep to JSON-lines), report (best-configuration CSV
tables), plotdata (boxplot-ready n_selected distributions).

Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path
from time import thread_time

from .data import DataError, load_csv, standard_scale
from .forest import ForestParams
from .relevance import DEFAULT_MI_BINS, ESTIMATORS, GINI, MI, relevance_all
from .selectors import (
    DIFFERENCE,
    KBEST,
    KGROUPS,
    MRMR_VARIANTS,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from .records import read_records
from .report import best_config_report, n_selected_distributions
from .sweep import DEFAULT_TIE_BREAKERS, SweepConfig, run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for data errors, so usage problems are re-raised and mapped to 1.
    def error(self, message):
        raise _UsageError(message)


def _split(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _reals(raw: str) -> list[float]:
    return [float(part) for part in _split(raw)]


def _parse_tie_breakers(raw: str | None, estimator: str) -> tuple[str, ...]:
    if raw is None:
        return DEFAULT_TIE_BREAKERS.get(estimator, ())
    if raw.lower() in ("", "none"):
        return ()
    names = tuple(part.upper() for part in _split(raw))
    for i, name in enumerate(names):
        if name not in ESTIMATORS:
            raise _UsageError(f"unknown tie-breaker estimator: {name!r}")
        if name in names[:i]:
            raise _UsageError(f"--tie-breakers repeats {name!r}")
    return names


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        if not rows:
            return
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _relevance(args, estimator: str):
    """Load, scale and time one relevance estimation: (dataset, forest, relevance, CPU s)."""
    d = load_csv(args.data, label_column=args.label_column)
    if not args.no_scale:
        d = standard_scale(d)
    forest = ForestParams(n_trees=args.trees, seed=args.seed)
    t0 = thread_time()
    rel = relevance_all(d, estimator, mi_bins=args.mi_bins, forest=forest)
    return d, forest, rel, thread_time() - t0


def _cmd_estimate(args) -> int:
    d, forest, rel, cpu = _relevance(args, args.estimator)
    params = {MI: {"mi_bins": args.mi_bins}, GINI: dataclasses.asdict(forest)}
    _write_json(
        {
            "dataset": d.name,
            "estimator": rel.estimator,
            "params": params.get(rel.estimator, {}),
            "cpu_seconds": cpu,
            "feature_names": list(d.feature_names),
            "values": [float(v) for v in rel.values],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_select(args) -> int:
    estimator = args.estimator
    if args.algo in MRMR_VARIANTS:
        # A named variant fixes its estimator; --estimator may only repeat it.
        variant_estimator, form, redundancy, mean_normalized = MRMR_VARIANTS[args.algo]
        if estimator not in (None, variant_estimator):
            raise _UsageError(f"{args.algo} uses the {variant_estimator} estimator, not {estimator}")
        estimator = variant_estimator
    elif estimator is None:
        raise _UsageError(f"{args.algo} needs --estimator")
    d, forest, rel, rel_cpu = _relevance(args, estimator)
    if args.algo == KBEST:
        hyperparams = {}
        result = select_kbest(rel, args.k)
    elif args.algo == KGROUPS:
        tie = _parse_tie_breakers(args.tie_breakers, estimator)
        hyperparams = {"alpha": args.alpha, "tie_breakers": tie}
        result = select_kgroups(
            d, rel, args.k, args.alpha, tie, mi_bins=args.mi_bins, forest=forest
        )
    else:
        hyperparams = {"form": form, "redundancy": redundancy, "mean_normalized": mean_normalized}
        if form == DIFFERENCE:
            hyperparams["beta"] = args.beta
        result = select_mrmr(
            d,
            rel,
            args.k,
            form,
            redundancy,
            beta=args.beta,
            mean_normalized=mean_normalized,
            mi_bins=args.mi_bins,
        )
    _write_json(
        {
            "dataset": d.name,
            "algorithm": result.algorithm,
            "estimator": estimator,
            "requested_k": args.k,
            "selected": list(result.selected),
            "selected_names": [d.feature_names[i] for i in result.selected],
            "n_selected": len(result.selected),
            "hyperparams": hyperparams,
            "relevance_cpu_seconds": rel_cpu,
            "cpu_time_seconds": result.cpu_time_seconds,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise _UsageError("config file must hold a JSON object")

    # Flags form a second document, so a --k-min overrides the config's k_range.
    fields = {field.name for field in dataclasses.fields(SweepConfig)}
    flags = {key: value for key, value in vars(args).items() if key in fields and value is not None}
    if "datasets" not in raw.keys() | flags.keys():
        raise _UsageError("no datasets given (config key 'datasets' or --datasets)")
    if "output_dir" not in raw.keys() | flags.keys():
        raise _UsageError(
            "no output directory given (config key 'output_dir' or --output-dir)"
        )
    try:
        config = SweepConfig.from_mapping(raw, flags)
        config.validate()
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc))

    stats: dict = {}
    count = sum(1 for _ in run_sweep(config, stats))
    out = Path(config.output_dir) / "records.jsonl"
    print(
        f"wrote {count} new records to {out} "
        f"({stats.get('cells_skipped', 0)} cells were already present)"
    )
    return EXIT_OK


def _read_records_strict(path: str):
    records = read_records(path)
    if not records:
        raise DataError(f"no records found in {path}")
    return records


def _cmd_report(args) -> int:
    records = _read_records_strict(args.records)
    tables = best_config_report(records)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        target = out_dir / f"{name}.csv"
        _write_csv(rows, target)
        print(f"wrote {target}")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    records = _read_records_strict(args.records)
    _write_json(n_selected_distributions(records), args.out)
    return EXIT_OK


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument(
        "--label-col",
        dest="label_column",
        default=None,
        help="label column name or integer index (default: last column)",
    )
    p.add_argument(
        "--no-scale", action="store_true", help="skip the standard scaler"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for forest training")
    p.add_argument("--mi-bins", type=int, default=DEFAULT_MI_BINS)
    p.add_argument("--trees", type=int, default=100, help="forest size for gini")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffsel", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="-v info, -vv debug"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate", help="score every feature with one estimator")
    _add_input_args(p)
    p.add_argument("--estimator", required=True, type=str.upper, choices=ESTIMATORS)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select", help="run one feature-selection configuration")
    _add_input_args(p)
    p.add_argument("--algo", required=True, type=str.upper, choices=(KBEST, KGROUPS, *MRMR_VARIANTS))
    p.add_argument("--estimator", type=str.upper, choices=ESTIMATORS, help="kbest, kgroups: required")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--alpha", type=float, default=1.0, help="kgroups bin exponent")
    p.add_argument("--beta", type=float, default=1.0, help="redundancy weight of difference variants")
    p.add_argument(
        "--tie-breakers",
        default=None,
        help="comma list of estimators, or 'none' (default: the protocol map)",
    )
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("benchmark", help="run a sweep and append JSON-lines records")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--datasets", type=_split, default=None, help="comma list of CSV paths")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--estimators", type=_split, default=None, help="comma list (mi,fvalue,gini,cosine)")
    p.add_argument(
        "--algorithms",
        type=_split,
        default=None,
        help=f"comma list (kbest, kgroups, {', '.join(map(str.lower, MRMR_VARIANTS))})",
    )
    p.add_argument("--classifiers", type=_split, default=None, help="comma list (knn,gnb,rf)")
    p.add_argument("--alpha-grid", type=_reals, default=None, help="comma list of reals")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--n-folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--label-col", dest="label_column", default=None)
    p.add_argument("--mi-bins", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--k-neighbors", type=int, default=None)
    p.add_argument("--scale", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument(
        "--scale-per-fold", action=argparse.BooleanOptionalAction, default=None
    )
    p.add_argument(
        "--select-per-fold", action=argparse.BooleanOptionalAction, default=None
    )
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("report", help="aggregate records into CSV tables")
    p.add_argument("--records", required=True, help="records.jsonl from benchmark")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plotdata", help="emit n_selected distributions as JSON")
    p.add_argument("--records", required=True)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
