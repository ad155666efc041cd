"""Command-line interface: sweep, ga, simulate, summary.

Exit codes: 0 success, 2 input/usage error, 3 computation failure.
All randomness flows from --seed; when the flag is absent a seed is
drawn and recorded, so every report can be reproduced from its own
invocation metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import replace

from . import __version__
from .data import (
    CovariateMask,
    Dataset,
    apply_mask,
    dataset_csv_text,
    load_csv,
    standardize_covariates,
    summary_stats,
)
from .errors import (
    CountmixError,
    DimensionError,
    DomainError,
    EmptyDataError,
    NoScoreError,
    ParseError,
    SchemaError,
    SweepError,
)
from .ga import (
    AUTO,
    PER_MASK,
    GaConfig,
    SubsetRecord,
    component_summaries,
    evolve,
    fit_mask,
    mask_row,
    report_components,
    resolve_g,
)
from .reports import (
    RunReport,
    components_csv,
    ga_csv,
    labels_csv_text,
    report_json,
    scores_csv,
    summary_csv,
    write_text_atomic,
)
from .selection import choose_family, normalize_criterion, sweep
from .simulate import (
    GENERATOR_ID,
    MixtureSpec,
    gen_grouped_counts,
    gen_regression_mixture,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

_INPUT_ERRORS = (
    SchemaError,
    ParseError,
    EmptyDataError,
    DimensionError,
    DomainError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


class _InputProblem(Exception):
    """Wraps any error that should map to exit code 2."""


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="input CSV file")
    sub.add_argument("--outcome", required=True, help="outcome column name")
    sub.add_argument(
        "--covariates",
        required=True,
        help="comma-separated covariate column names",
    )
    sub.add_argument(
        "--standardize",
        action="store_true",
        help="center/scale covariates to zero mean, unit sd (default off)",
    )


def _add_model_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (drawn and recorded if absent)")
    sub.add_argument("--gmax", type=int, default=5, help="largest component count to try")
    sub.add_argument(
        "--family",
        choices=["auto", "poisson", "nb2"],
        default="auto",
        help="count family; auto applies the dispersion gate",
    )
    sub.add_argument(
        "--alpha-threshold",
        type=float,
        default=0.05,
        help="fitted dispersion below this elects Poisson (auto family)",
    )
    sub.add_argument("--restarts", type=int, default=5, help="EM restarts per fit")
    sub.add_argument(
        "--criterion",
        choices=["aic", "sbc", "bic", "caic", "icomp"],
        default="caic",
        help="criterion used for the selected model / GA fitness",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countmix",
        description="Finite mixtures of count regressions with IC model selection",
    )
    parser.add_argument("--version", action="version", version=f"countmix {__version__}")
    cmds = parser.add_subparsers(dest="command", required=True)

    p_sweep = cmds.add_parser("sweep", help="fit G=1..gmax mixtures and score them")
    _add_data_flags(p_sweep)
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_ga = cmds.add_parser("ga", help="GA covariate-subset search")
    _add_data_flags(p_ga)
    _add_model_flags(p_ga)
    p_ga.add_argument("--out", required=True, help="output directory")
    p_ga.add_argument("--runs", type=int, default=200, help="independent GA runs")
    p_ga.add_argument("--pop", type=int, default=30, help="population size")
    p_ga.add_argument("--gens", type=int, default=40, help="generations per run")
    p_ga.add_argument("--mut", type=float, default=None, help="per-bit mutation rate (default 1/p)")
    p_ga.add_argument("--cx", type=float, default=0.8, help="crossover rate")
    p_ga.add_argument("--elitism", type=int, default=2, help="chromosomes carried unchanged")
    p_ga.add_argument(
        "--g",
        default="auto",
        help="component count for fitness fits, or 'auto' (chosen by one sweep of the full model)",
    )
    p_ga.add_argument(
        "--resweep-g",
        action="store_true",
        help="re-select G per mask by a sweep of each mask (costly); not with a numeric --g",
    )
    p_ga.add_argument(
        "--force-mask",
        default=None,
        help="skip the search and score one subset: 'all', 'none', or 1-based numbers like '1,3,4'",
    )

    p_sim = cmds.add_parser("simulate", help="write seeded synthetic data")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--groups", type=int, default=4, help="number of scatter groups (max 5)")
    p_sim.add_argument("--n-per-group", type=int, default=50)
    p_sim.add_argument(
        "--no-reject",
        action="store_true",
        help="allow near-duplicate group rates (fully literal protocol)",
    )
    p_sim.add_argument(
        "--spec",
        default=None,
        help="JSON file describing a regression mixture (weights/betas/alphas)",
    )
    p_sim.add_argument("--n", type=int, default=200, help="rows for --spec mode")

    p_sum = cmds.add_parser("summary", help="per-column summary statistics")
    _add_data_flags(p_sum)
    p_sum.add_argument("--out", default=None, help="optional output directory")

    return parser


def _resolve_seed(args, argv: list[str]) -> tuple[int, list[str]]:
    """Pin the seed into the recorded argv so reruns are reproducible."""
    if args.seed is not None:
        if args.seed < 0:
            raise DomainError("--seed must be non-negative")
        return args.seed, list(argv)
    seed = secrets.randbelow(2**32)
    return seed, list(argv) + ["--seed", str(seed)]


def _load_dataset(args) -> Dataset:
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise SchemaError("--covariates must name at least one column")
    d = load_csv(args.data, args.outcome, covariates)
    if args.standardize:
        d = standardize_covariates(d)
    return d


def _parse_mask(text: str, p: int) -> CovariateMask:
    text = text.strip().lower()
    if text in ("all", "ones"):
        return CovariateMask.all_ones(p)
    if text in ("none", ""):
        return CovariateMask.none(p)
    try:
        numbers = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ParseError(f"malformed mask string {text!r}") from None
    return CovariateMask.from_numbers(p, numbers)


def _score_table_text(rows, best) -> str:
    header = f"{'G':>3} {'logL':>14} {'n_k':>4} {'AIC':>12} {'SBC':>12} {'CAIC':>12} {'ICOMP':>12}"
    lines = [header]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.G:>3} failed: {r.error}")
            continue
        icomp_txt = f"{r.icomp:>12.2f}" if r.icomp is not None else f"{'--':>12}"
        lines.append(
            f"{r.G:>3} {r.logL:>14.4f} {r.n_k:>4} {r.aic:>12.2f} {r.sbc:>12.2f} "
            f"{r.caic:>12.2f} {icomp_txt}"
        )
    lines.append("chosen: " + "  ".join(f"{k}->{v}" for k, v in sorted(best.items())))
    return "\n".join(lines)


def _invocation(command: str, recorded: list[str], seed: int) -> dict:
    """The metadata that lets a report's run be repeated."""
    return {
        "command": command,
        "argv": recorded,
        "seed": seed,
        "generator": GENERATOR_ID,
        "version": __version__,
    }


def _tables(model, d: Dataset) -> tuple[list, list]:
    """A report's component tables (none unless converged) and per-component summaries."""
    summaries = [
        {name: vars(cs) for name, cs in stats.items()} if stats is not None else None
        for stats in component_summaries(model, d)
    ]
    return (report_components(model, d) if model.converged else []), summaries


def _check_model_flags(args) -> None:
    """Reject model flags no fit can use, before any data is read or fitted."""
    if args.gmax < 1:
        raise DomainError(f"--gmax must be >= 1, got {args.gmax}")
    if args.restarts < 1:
        raise DomainError(f"--restarts must be >= 1, got {args.restarts}")
    if not (math.isfinite(args.alpha_threshold) and args.alpha_threshold >= 0.0):
        raise DomainError(
            f"--alpha-threshold must be finite and >= 0, got {args.alpha_threshold}"
        )


def cmd_sweep(args, argv: list[str]) -> int:
    seed, recorded = _resolve_seed(args, argv)
    _check_model_flags(args)
    d = _load_dataset(args)
    criterion = normalize_criterion(args.criterion)
    result = sweep(
        d,
        args.gmax,
        seed=seed,
        restarts=args.restarts,
        family=args.family,
        alpha_threshold=args.alpha_threshold,
    )
    # the criterion's G, or else the smallest G another criterion chose
    selected = result.best.get(criterion, min(result.best.values(), default=None))
    components, summaries = ([], []) if selected is None else _tables(result.models[selected], d)
    report = RunReport(
        invocation=_invocation("sweep", recorded, seed),
        family=result.family_used,
        score_table=list(result.rows),
        chosen=dict(result.best),
        selected_G=selected,
        criterion=criterion,
        components=components,
        summaries=summaries,
        warnings=list(result.warnings),
    )
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "report.json"), report_json(report.to_payload()))
    write_text_atomic(os.path.join(args.out, "scores.csv"), scores_csv(result.rows))
    print(f"family: {result.family_used}")
    print(_score_table_text(result.rows, result.best))
    return EXIT_OK


def _parse_g(args) -> int | str:
    """The GA's component count from --g and --resweep-g."""
    text = args.g.lower()
    if args.resweep_g:
        if text != AUTO:
            raise _InputProblem(f"--resweep-g re-selects G per mask; drop --g {args.g}")
        return PER_MASK
    if text == AUTO:
        return AUTO
    try:
        return int(text)
    except ValueError:
        raise _InputProblem(f"--g must be an integer or 'auto', got {args.g!r}") from None


def cmd_ga(args, argv: list[str]) -> int:
    seed, recorded = _resolve_seed(args, argv)
    _check_model_flags(args)
    criterion = normalize_criterion(args.criterion)
    # built before any fit, so that bad GA flags fail before the family gate
    cfg = GaConfig(
        pop_size=args.pop,
        generations=args.gens,
        crossover_rate=args.cx,
        mutation_rate=args.mut,
        elitism=args.elitism,
        criterion=criterion,
        G=_parse_g(args),
        runs=args.runs,
        seed=seed,
        restarts=args.restarts,
        g_max=args.gmax,
    )
    d = _load_dataset(args)
    force_mask = _parse_mask(args.force_mask, d.p) if args.force_mask is not None else None
    family = choose_family(d, args.alpha_threshold) if args.family == "auto" else args.family
    cfg = replace(cfg, G=resolve_g(d, cfg, family))
    records = evolve(d, cfg, family=family) if force_mask is None else None
    winner = records[0].mask if force_mask is None else force_mask
    rows, models = fit_mask(
        winner, d, cfg.G, family, seed=seed, restarts=args.restarts, g_max=args.gmax
    )
    row = mask_row(rows, cfg.G, criterion)
    if row is None:
        raise NoScoreError(f"criterion {criterion!r} unavailable for mask {winner.render()!r}")
    records = records or [SubsetRecord.of(winner, row, 1, 1)]
    model = models[row.G]
    components, summaries = _tables(model, apply_mask(d, winner))
    ga_payload = [
        {
            "subset": rec.mask.render(),
            "bits": [bool(b) for b in rec.mask.bits],
            "rel_freq": float(rec.rel_freq),
            "wins": rec.wins,
            "runs": rec.runs,
            "aic": rec.aic,
            "caic": rec.caic,
            "sbc": rec.sbc,
        }
        for rec in records
    ]
    report = RunReport(
        invocation=_invocation("ga", recorded, seed),
        family=family,
        selected_G=model.G,
        criterion=criterion,
        components=components,
        summaries=summaries,
        ga_records=ga_payload,
        warnings=list(model.warnings),
    )
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "report.json"), report_json(report.to_payload()))
    write_text_atomic(os.path.join(args.out, "ga.csv"), ga_csv(records))
    write_text_atomic(os.path.join(args.out, "components.csv"), components_csv(components))
    print(f"family: {family}  G: {model.G}  criterion: {criterion}")
    for rec in records[:10]:
        print(
            f"  subset [{rec.mask.render()}]  rel_freq {float(rec.rel_freq):.2%}  "
            f"AIC {rec.aic:.2f}  CAIC {rec.caic:.2f}  SBC {rec.sbc:.2f}"
        )
    return EXIT_OK


def cmd_simulate(args, argv: list[str]) -> int:
    seed, recorded = _resolve_seed(args, argv)
    meta = _invocation("simulate", recorded, seed)
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            spec = MixtureSpec(
                weights=tuple(raw["weights"]),
                betas=tuple(tuple(b) for b in raw["betas"]),
                alphas=tuple(raw.get("alphas", [])),
                names=tuple(raw.get("names", [])),
            )
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise _InputProblem(f"bad --spec file: {exc}") from exc
        d, labels = gen_regression_mixture(spec, args.n, seed)
        meta.update(
            mode="regression-mixture",
            n=args.n,
            spec={
                "weights": list(spec.weights),
                "betas": [list(b) for b in spec.betas],
                "alphas": list(spec.alphas),
                "names": list(spec.names),
            },
        )
    else:
        d, labels, groups = gen_grouped_counts(
            seed,
            n_per_group=args.n_per_group,
            n_groups=args.groups,
            reject_close=not args.no_reject,
        )
        meta.update(
            mode="grouped-counts",
            n_per_group=args.n_per_group,
            groups=[{"mu": g.mu, "lam": g.lam} for g in groups],
            reject_close=not args.no_reject,
        )
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "data.csv"), dataset_csv_text(d))
    write_text_atomic(os.path.join(args.out, "labels.csv"), labels_csv_text(labels))
    write_text_atomic(os.path.join(args.out, "meta.json"), report_json(meta))
    print(f"wrote {d.n} rows to {args.out} (seed {seed})")
    return EXIT_OK


def cmd_summary(args, argv: list[str]) -> int:
    d = _load_dataset(args)
    stats = summary_stats(d)
    print(f"{'name':<12} {'mean':>12} {'sd':>12} {'min':>12} {'max':>12}")
    for name, cs in stats.items():
        print(f"{name:<12} {cs.mean:>12.4f} {cs.sd:>12.4f} {cs.min:>12.4f} {cs.max:>12.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text_atomic(os.path.join(args.out, "summary.csv"), summary_csv(stats))
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else 0
    handlers = {
        "sweep": cmd_sweep,
        "ga": cmd_ga,
        "simulate": cmd_simulate,
        "summary": cmd_summary,
    }
    try:
        return handlers[args.command](args, argv)
    except (_InputProblem, *_INPUT_ERRORS) as exc:
        print(f"countmix: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CountmixError as exc:
        print(f"countmix: computation failed: {exc}", file=sys.stderr)
        if isinstance(exc, SweepError):
            for G, why in sorted(exc.diagnostics.items()):
                print(f"countmix:   G={G}: {why}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"countmix: i/o failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
