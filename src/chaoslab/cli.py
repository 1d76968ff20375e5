"""Command-line surface: every check is a named experiment.

Exit codes: 0 all checks passed, 1 usage error, 2 at least one check
failed, 3 work budget exceeded.  Every command is a pure function of its
flags; rerunning with identical flags reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Before numpy loads: chaoslab makes no BLAS call, and an idle OpenBLAS pool costs CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import mc, point_process, poisson_moments, poisson_pair, series, streams
from .errors import BadIndexError, ChaosLabError, DomainError, ResourceLimitError
from .report import Report, render_json, render_text

_SLACK = 1e-14  # additive slack absorbing rounding in strict analytic inequalities


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc
    if not vals:
        raise UsageError(f"empty numeric list {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"non-finite value in {text!r}")
    return vals


def _emit(report: Report, fmt: str) -> int:
    print(render_json(report) if fmt == "json" else render_text(report))
    return report.exit_code()


def _at_most(report: Report, label: str, c: poisson_moments.CertifiedValue, bound: float) -> None:
    """Row: a certified value against an upper bound, up to its remainder and _SLACK."""
    report.add(label, c.value, bound, c.value <= bound + c.remainder_bound + _SLACK)


def _matches(report: Report, label: str, c: poisson_moments.CertifiedValue, closed: float) -> None:
    """Row: a certified series value against its closed form, to 1e-12 relative."""
    report.add(label, c.value, closed, abs(c.value - closed) <= 1e-12 * max(1.0, closed))


def cmd_moments(args) -> int:
    lam_grid = (
        [i / 100.0 for i in range(1, 101)]
        if args.lambda_grid is None
        else _parse_floats(args.lambda_grid)
    )
    if args.j_max < 0:
        raise UsageError("--j-max must be >= 0")
    for lam in lam_grid:
        if not 0.0 < lam <= poisson_moments.MAX_RATE:
            raise UsageError(
                f"intensity {lam:g} outside the supported range (0, {poisson_moments.MAX_RATE:g}]"
            )
    report = Report(
        "moments",
        {"lambda_grid": f"{lam_grid[0]:g}..{lam_grid[-1]:g}({len(lam_grid)})", "j_max": args.j_max},
        seed=None,
    )
    for lam in lam_grid:
        for j in range(args.j_max + 1):
            tail = poisson_moments.poisson_tail(lam, j)
            bound = poisson_moments.tail_factorial_bound(lam, j)
            _at_most(report, f"tail lam={lam:g} j={j}", tail, bound)
        if lam <= 1.0:
            abs52 = poisson_moments.abs_central_moment(lam, 2.5)
            _at_most(report, f"abs_central_52 lam={lam:g}", abs52, math.sqrt(8.0) * lam)
            raw52 = poisson_moments.raw_abs_moment(lam, 2.5)
            _at_most(report, f"raw_52 lam={lam:g}", raw52, math.sqrt(15.0) * lam)
            abs1 = poisson_moments.abs_central_moment(lam, 1.0)
            _at_most(report, f"abs_central_1 lam={lam:g}", abs1, 2.0 * lam)
            cs_rhs = poisson_moments.central_moment_4(lam) * abs1.value
            report.add(
                f"cauchy_schwarz lam={lam:g}",
                abs52.value**2,
                cs_rhs,
                abs52.value**2 <= cs_rhs + 1e-10,
            )
            central4 = poisson_moments.abs_central_moment(lam, 4.0)
            closed_c4 = poisson_moments.central_moment_4(lam)
            _matches(report, f"central4_series lam={lam:g}", central4, closed_c4)
            raw4 = poisson_moments.raw_abs_moment(lam, 4.0)
            _matches(report, f"raw4_series lam={lam:g}", raw4, poisson_moments.raw_moment_4(lam))
    return _emit(report, args.format)


def cmd_series(args) -> int:
    chosen = list(series.Series) if args.series == "all" else [series.Series(args.series)]
    report = Report("series", {"series": args.series, "n": args.n}, seed=None)
    for s in chosen:
        start = series.START[s]
        if args.n < start:
            raise UsageError(f"{s.value} starts at n={start}")
        partial = series.partial_sum(s, args.n)
        report.add(f"{s.value} partial_sum N={args.n}", partial)
        if s is series.Series.EVEN_HARMONIC:
            n_exceed = series.scan_partial_exceeds(s, 5.0)
            p_exceed = series.partial_sum(s, n_exceed)
            report.add(
                f"{s.value} divergence: partial sum exceeds 5 at N={n_exceed}",
                p_exceed,
                5.0,
                p_exceed > 5.0,
            )
            continue
        # the joint-sign bound needs N >= 3; the label names the N it is taken at
        n_tail = max(args.n, 3) if s is series.Series.TWO_POINT_JOINT else args.n
        report.add(f"{s.value} tail_bound N={n_tail}", series.tail_bound(s, n_tail))
        n1 = max(start, 3, args.n // 1000)
        if n1 <= args.n:  # tail_bound needs n1 >= 3, so N < 3 has no bracket
            tail1 = series.tail_bound(s, n1)
            p1 = series.partial_sum(s, n1)
            report.add(
                f"{s.value} bracket: partial({n1}) <= partial({args.n}) "
                f"<= partial({n1})+tail({n1})",
                partial, p1 + tail1, p1 <= partial <= p1 + tail1,
            )
        if s in (series.Series.INTENSITY_FOURTH, series.Series.INTENSITY_CROSS):
            c = series.limit_constant(s)
            report.add(f"{s.value} limit bracket [value, value+error]", c.value, c.upper, None)
    return _emit(report, args.format)


def _cells(values: list[float], stderrs: list[float]) -> list[str]:
    """The value and stderr cells of CSV rows; a nan stderr gives an empty cell."""
    se_cells = ("" if se == "nan" else se for se in map(repr, stderrs))
    return [f"{v},{se}" for v, se in zip(map(repr, values), se_cells)]


def build_csv(stats: mc.TrajectoryStats) -> str:
    """Fixed 4-column per-n series; stderr is empty on degenerate runs."""
    columns = [
        ("f_mean", *stats.mean_with_stderr("f")),
        ("f_sq_mean", *stats.mean_with_stderr("f_sq")),
        ("f_abs52_mean", *stats.mean_with_stderr("f_abs52")),
        ("j1_mean", *stats.j1_mean()),
    ]
    n_values = stats.tables.n_values
    lines = ["n,stat,value,stderr"]
    # Each column is formatted at once from Python floats, faster than from
    # numpy scalars; 256 rows at a time, so that no second copy of the
    # output is held.
    for lo in range(0, n_values.size, 256):
        part = slice(lo, lo + 256)
        cells = [[f"{name},{cell}" for cell in _cells(vals[part].tolist(), ses[part].tolist())]
                 for name, vals, ses in columns]
        lines += [f"{n},{cell}" for n, *row in zip(n_values[part].tolist(), *cells)
                  for cell in row]
    sup, sup_se = stats.sup_exceedance(stats.config.thresholds[0])
    win, win_se = stats.proportion(stats.win_hits)
    heads = ([f"{n0},sup_exceed_prob" for n0 in stats.grid]
             + [f"{w_lo},window_event_prob" for w_lo, _ in stats.windows])
    cells = _cells(sup[1:].tolist() + win.tolist(), sup_se[1:].tolist() + win_se.tolist())
    lines += [f"{head},{cell}" for head, cell in zip(heads, cells)]
    return "\n".join(lines) + "\n"


def _mc_row(report: Report, label: str, mean: float, stderr: float, target: float,
            below: bool = False) -> None:
    """Row: a Monte Carlo mean within 3 stderr of an exact value, or with
    below=True, under a bound plus 3 stderr.  A row without a stderr (nan:
    one replication) passes.  Against an exact value, the stderr is that of
    the exact variance (mc.standard_error), not the sample stderr, which
    heavy tails bias low."""
    gap = mean - target if below else abs(mean - target)
    report.add(label, mean, target, math.isnan(stderr) or gap <= 3.0 * stderr, stderr=stderr)


def _window_rows(report: Report, stats: mc.TrajectoryStats) -> None:
    win, _ = stats.proportion(stats.win_hits)
    for (w_lo, w_hi), mean, (exact, deviation) in zip(stats.windows, win.tolist(),
                                                      stats.window_law()):
        se = mc.standard_error(exact * (1.0 - exact), stats.replications)
        _mc_row(report, f"window[{w_lo},{w_hi}) event prob vs exact", mean, se, exact)
        if deviation is not None:
            report.add(f"window[{w_lo},{w_hi}) first-chaos closed-form deviation", deviation,
                       1e-9, deviation <= 1e-9)


def _diagnostic_rows(report: Report, stats: mc.TrajectoryStats) -> None:
    t = stats.config.thresholds[0]
    sup, sup_se = stats.sup_exceedance(t)
    for n0, mean, se in zip(stats.grid, sup[1:].tolist(), sup_se[1:].tolist()):
        report.add(f"P(sup_(n>={n0}) |F| > {t:g})", mean, stderr=se)


def cmd_simulate(args) -> int:
    config = mc.SimConfig(
        example=args.example,
        n_max=args.n_max,
        replications=args.reps,
        master_seed=args.seed,
        thresholds=(args.epsilon,),
    )
    stats = mc.run(config)
    csv_text = build_csv(stats)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise UsageError(f"cannot write CSV to {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(csv_text)
    report = Report(
        "simulate",
        {
            "example": args.example,
            "n_max": args.n_max,
            "reps": args.reps,
            "epsilon": args.epsilon,
            "stream_layout": streams.LAYOUT_VERSION,
        },
        seed=args.seed,
    )
    f_mean, _ = stats.mean_with_stderr("f")
    fsq_mean, _ = stats.mean_with_stderr("f_sq")
    a52_mean, a52_se = stats.mean_with_stderr("f_abs52")
    model = mc.MODELS[config.example]
    start = config.start_n
    probes = [n for n in (1, 4, 16, 100, 256) if start <= n <= config.n_max]
    for n in probes:
        i = n - start
        target = model.second_moment(n)
        se = mc.standard_error(model.fourth_moment(n) - target * target, config.replications)
        _mc_row(report, f"E[F_{n}^2] vs exact", float(fsq_mean[i]), se, target)
        _mc_row(report, f"E[F_{n}] vs 0", float(f_mean[i]),
                mc.standard_error(target, config.replications), 0.0)
        if model.moment52_bound is not None:
            _mc_row(report, f"E|F_{n}|^(5/2) vs decay bound", float(a52_mean[i]),
                    float(a52_se[i]), model.moment52_bound(n), below=True)
    _diagnostic_rows(report, stats)
    _window_rows(report, stats)
    return _emit(report, args.format)


def cmd_decompose(args) -> int:
    if args.n < poisson_pair.START_N:
        raise UsageError(f"--n must be >= {poisson_pair.START_N}")
    if args.n >= 2**62:  # the interval indices 2n, 2n + 1 are int64
        raise UsageError(f"--n must be < 2**62, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.counts is not None:
        try:
            counts = [int(x) for x in args.counts.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad counts {args.counts!r}") from exc
        if len(counts) != 2 or any(c < 0 for c in counts):
            raise UsageError("--counts needs two nonnegative integers, e.g. 2,1")
        if max(counts) >= 2**63:
            raise UsageError(f"--counts must be < 2**63, got {args.counts}")
        y_even, y_odd = counts
    else:
        y_even, y_odd = point_process.realize(args.n, args.seed)
    parts = point_process.decompose_term(args.n, y_even, y_odd)
    collapsed = poisson_pair.term(args.n, y_even, y_odd)
    residual = abs(parts.total - collapsed)
    report = Report(
        "decompose",
        {"n": args.n, "counts": f"{y_even},{y_odd}"},
        seed=args.seed,
    )
    report.add("order-0 projection", parts.order0)
    report.add("order-1 projection", parts.order1)
    report.add("order-2 projection", parts.order2)
    report.add("collapsed value", collapsed)
    report.add(
        "residual |J0+J1+J2 - F|",
        residual,
        1e-10 * max(1.0, abs(collapsed)),
        residual <= 1e-10 * max(1.0, abs(collapsed)),
    )
    return _emit(report, args.format)


def cmd_tail(args) -> int:
    t_grid = _parse_floats(args.t_grid)
    config = mc.SimConfig(
        example="poisson",
        n_max=args.n_max,
        replications=args.reps,
        master_seed=args.seed,
        thresholds=tuple(t_grid),
    )
    stats = mc.run(config)
    report = Report(
        "tail",
        {"t_grid": args.t_grid, "n_max": args.n_max, "reps": args.reps,
         "stream_layout": streams.LAYOUT_VERSION},
        seed=args.seed,
    )
    for s in (series.Series.INTENSITY_FOURTH, series.Series.INTENSITY_CROSS):
        c = series.limit_constant(s)
        report.add(f"{s.value} bracket [value, value+error]", c.value, c.upper, None)
    moment = poisson_pair.sup_moment_bound(1.0 / 48.0)
    report.add(
        "E(sup|F|^(1/48)) certified finite bound",
        moment,
        passed=math.isfinite(moment) and moment > 0,
    )
    for t in t_grid:
        p, se = (a[0] for a in stats.sup_exceedance(t))  # over the whole range, n0 = start_n
        if t < 9.0:
            report.add(f"P(window sup > {t:g}): bound not applicable (t < 9)", p, stderr=se)
            continue
        bound = poisson_pair.sup_tail_bound(t)
        vacuous = " (bound >= 1: vacuous)" if bound >= 1.0 else ""  # any estimate passes
        _mc_row(report, f"P(window sup > {t:g}) - 3se vs sup tail bound{vacuous}", p, se, bound,
                below=True)
    return _emit(report, args.format)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chaoslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="Poisson tail and moment inequality grid")
    p.add_argument("--lambda-grid", default=None, help="comma list, default 0.01..1.00")
    p.add_argument("--j-max", type=int, default=20)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("series", help="partial sums, tail bounds, limit constants")
    p.add_argument(
        "--series",
        choices=tuple(s.value for s in series.Series) + ("all",),
        default="all",
    )
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("simulate", help="trajectory Monte Carlo with CSV output")
    p.add_argument("--example", choices=mc.EXAMPLES, required=True)
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--out", default=None, help="CSV path; stdout when omitted")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="chaos projections of one paired term")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--counts", default=None, help="manual counts, e.g. 2,1")
    group.add_argument("--seed", type=int, default=None, help="sample the counts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tail", help="window-sup exceedance vs the sup tail bound")
    p.add_argument("--t-grid", default="9,16,25,100")
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_tail)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, BadIndexError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ChaosLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
