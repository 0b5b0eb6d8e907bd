"""Command-line front end.

Subcommands: estimate (per-feature relevance), select (one selection run),
benchmark (full sweep to JSON-lines), report (best-configuration CSV
tables), plotdata (boxplot-ready n_selected distributions).

Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .data import DataError, load_csv, standard_scale
from .forest import ForestParams
from .relevance import (
    ABS_PEARSON,
    COSINE,
    DEFAULT_MI_BINS,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    relevance_all,
)
from .selectors import (
    DIFFERENCE,
    MRMR_VARIANTS,
    QUOTIENT,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from .sweep import (
    DEFAULT_TIE_BREAKERS,
    SweepConfig,
    WORKERS_ENV,
    best_config_report,
    n_selected_distributions,
    read_records,
    run_sweep,
)
from .timing import thread_cpu_time

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_EST = {"mi": MI, "fvalue": FVALUE, "gini": GINI, "cosine": COSINE}
_RED = {"mi": MI_PAIR, "pearson": ABS_PEARSON}
_FORM = {"diff": DIFFERENCE, "quot": QUOTIENT}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for data errors, so usage problems are re-raised and mapped to 1.
    def error(self, message):
        raise _UsageError(message)


def _split(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _parse_label_col(raw: str | None) -> str | int | None:
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def _parse_tie_breakers(raw: str | None, estimator: str) -> tuple[str, ...]:
    if raw is None:
        return DEFAULT_TIE_BREAKERS.get(estimator, ())
    if raw.lower() in ("", "none"):
        return ()
    names = []
    for part in _split(raw):
        if part.lower() not in _EST:
            raise _UsageError(f"unknown tie-breaker estimator: {part!r}")
        names.append(_EST[part.lower()])
    return tuple(names)


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


def _load_scaled(args):
    d = load_csv(args.data, label_column=_parse_label_col(args.label_col))
    return d if args.no_scale else standard_scale(d)


def _cmd_estimate(args) -> int:
    d = _load_scaled(args)
    estimator = _EST[args.estimator]
    forest = ForestParams(n_trees=args.trees, seed=args.seed)
    t0 = thread_cpu_time()
    rel = relevance_all(d, estimator, mi_bins=args.mi_bins, forest=forest)
    cpu = thread_cpu_time() - t0
    _write_json(
        {
            "dataset": d.name,
            "estimator": rel.estimator,
            "params": dict(rel.params),
            "cpu_seconds": cpu,
            "feature_names": list(d.feature_names),
            "values": [float(v) for v in rel.values],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_select(args) -> int:
    d = _load_scaled(args)
    estimator = _EST[args.estimator]
    forest = ForestParams(n_trees=args.trees, seed=args.seed)
    t0 = thread_cpu_time()
    rel = relevance_all(d, estimator, mi_bins=args.mi_bins, forest=forest)
    rel_cpu = thread_cpu_time() - t0
    if args.algo == "kbest":
        result = select_kbest(rel, args.k)
    elif args.algo == "mrmr":
        if args.redundancy is not None:
            redundancy = _RED[args.redundancy]
        else:
            redundancy = MI_PAIR if estimator == MI else ABS_PEARSON
        result = select_mrmr(
            d,
            rel,
            args.k,
            _FORM[args.form],
            redundancy,
            beta=args.beta,
            mean_normalized=args.mean_normalized,
            mi_bins=args.mi_bins,
        )
    else:
        tie = _parse_tie_breakers(args.tie_breakers, estimator)
        result = select_kgroups(
            d, rel, args.k, args.alpha, tie, mi_bins=args.mi_bins, forest=forest
        )
    _write_json(
        {
            "dataset": d.name,
            "algorithm": result.algorithm,
            "estimator": result.estimator,
            "requested_k": result.requested_k,
            "selected": list(result.selected),
            "selected_names": [d.feature_names[i] for i in result.selected],
            "n_selected": result.n_selected,
            "hyperparams": result.hyperparams,
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

    overrides = {
        "datasets": _split(args.datasets),
        "output_dir": args.output_dir,
        "estimators": _split(args.estimators),
        "algorithms": _split(args.algorithms),
        "classifiers": _split(args.classifiers),
        "alpha_grid": args.alpha_grid and [float(a) for a in _split(args.alpha_grid)],
        "k_min": args.k_min,
        "k_max": args.k_max,
        "n_folds": args.n_folds,
        "seed": args.seed,
        "label_column": _parse_label_col(args.label_col),
        "mi_bins": args.mi_bins,
        "beta": args.beta,
        "scale": args.scale,
        "scale_per_fold": args.scale_per_fold,
        "select_per_fold": args.select_per_fold,
        "k_neighbors": args.k_neighbors,
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if "datasets" not in raw:
        raise _UsageError("no datasets given (config key 'datasets' or --datasets)")
    if "output_dir" not in raw:
        raise _UsageError(
            "no output directory given (config key 'output_dir' or --output-dir)"
        )
    try:
        config = SweepConfig.from_mapping(raw)
        config.validate()
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc))

    stats: dict = {}
    count = 0
    for _ in run_sweep(config, stats):
        count += 1
    if stats.get("datasets_loaded", 0) == 0:
        print("data error: no dataset could be loaded", file=sys.stderr)
        return EXIT_DATA
    out = Path(config.output_dir) / "records.jsonl"
    print(
        f"wrote {count} new records to {out} "
        f"({stats.get('cells_skipped', 0)} cells were already present)"
    )
    return EXIT_OK


def _read_records_strict(path: str):
    try:
        records = read_records(path)
    except ValueError as exc:  # undecodable bytes
        raise DataError(f"bad record in {path}: {exc}")
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
    p.add_argument("--estimator", required=True, choices=sorted(_EST))
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select", help="run one feature-selection configuration")
    _add_input_args(p)
    p.add_argument("--algo", required=True, choices=["kbest", "mrmr", "kgroups"])
    p.add_argument("--estimator", required=True, choices=["mi", "fvalue", "gini"])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--alpha", type=float, default=1.0, help="kgroups bin exponent")
    p.add_argument("--form", choices=sorted(_FORM), default="diff")
    p.add_argument("--redundancy", choices=sorted(_RED), default=None,
                   help="default: mi for the MI estimator, else pearson")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument(
        "--mean-normalized",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="divide redundancy sums by the selected-set size",
    )
    p.add_argument(
        "--tie-breakers",
        default=None,
        help="comma list of estimators, or 'none' (default: the protocol map)",
    )
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("benchmark", help="run a sweep and append JSON-lines records")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--datasets", default=None, help="comma list of CSV paths")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--estimators", default=None, help="comma list (mi,fvalue,gini)")
    p.add_argument(
        "--algorithms",
        default=None,
        help=f"comma list (kbest, kgroups, {', '.join(map(str.lower, MRMR_VARIANTS))})",
    )
    p.add_argument("--classifiers", default=None, help="comma list (knn,gnb,rf)")
    p.add_argument("--alpha-grid", default=None, help="comma list of reals")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--n-folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--label-col", default=None)
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
    p.epilog = f"worker pool size comes from the {WORKERS_ENV} environment variable"
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
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
