"""Command-line interface.

Subcommands cover the whole toolkit: growth curves, phase diagrams,
long-range criteria, experiment sampling, oracle verification, matter
thresholds, and the state-space search.  Every run emits a reproducibility
header (version and the flags that shape the output, such as seed, sample
count, discretization and search width) and output is deterministic for fixed
flags, so files are byte-identical across reruns.

Exit codes: 0 ok, 2 infeasible spec (`InfeasibleRequest`), 3 solver failure
(`SolverFailure` and its subclasses), 4 bad input (`ValueError`, `OSError`).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it in build_parser: load it here
import math
import sys

import numpy as np

from . import __version__
from .decompose import EXACT_TOL, SolverFailure
from .experiment import ExperimentSpec
from .growth import (
    PowerLawSpec,
    cz_feasible,
    lambda_phi,
    lemma1_feasible,
    longrange_growth,
    telescoping_family,
    theta_max,
)
from .matter import (
    coarse_grain_threshold_1d,
    fixed_points,
    iterate_recursion,
    matter_bounds,
    steer_max,
)
from .oracle import exact_distribution
from .sampler import InfeasibleRequest, empirical_tv, run_branches
from .statespace import (
    bspace_search_rows,
    cylinder_max_input_radius,
    max_input_radius_bspace,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as bad input: exit code 4 and
    one stderr line in the format of main's own bad-input line."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"bad input: {self.prog}: {message}\n")


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of the point, dimension and step counts: at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, not {text!r}")
    return value


def _header(**kv) -> str:
    parts = [f"cylsim v{__version__}"]
    parts += [f"{k}={v}" for k, v in kv.items()]
    return " | ".join(parts)


def _emit(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(header_line: str, columns: list[str], rows) -> str:
    lines = [f"# {header_line}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _json_doc(meta: dict, body: dict) -> str:
    return json.dumps({"meta": meta, **body}, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def cmd_growth(args) -> int:
    rows = []
    for k in range(args.points):
        phi = 2.0 * math.pi * k / args.points
        rows.append((phi, lambda_phi(phi)))
    _emit(args.output, _csv(_header(points=args.points), ["phi", "lambda"], rows))
    return EXIT_OK


def cmd_phase_diagram(args) -> int:
    rows = []
    for k in range(args.points):
        phi = math.pi * k / (args.points - 1) if args.points > 1 else 0.0
        theta = theta_max(phi, args.delta, args.temperature)
        rows.append((phi, math.degrees(theta)))
    _emit(args.output, _csv(
        _header(delta=args.delta, temperature=args.temperature, points=args.points),
        ["phi", "theta_max_deg"], rows))
    return EXIT_OK


def cmd_longrange(args) -> int:
    if args.alpha_max is not None:
        rows = []
        for k in range(args.points):
            alpha = args.alpha + (args.alpha_max - args.alpha) * (
                k / (args.points - 1) if args.points > 1 else 0.0)
            fam = telescoping_family(alpha)
            rows.append((alpha, math.degrees(math.asin(fam.r0))))
        _emit(args.output, _csv(
            _header(alpha_min=args.alpha, alpha_max=args.alpha_max,
                    points=args.points),
            ["alpha", "theta_deg"], rows))
        return EXIT_OK
    spec = PowerLawSpec(alpha=args.alpha, dim=args.dim, time=args.time,
                        cutoff=args.cutoff, nn_phase=args.nn_phase)
    result = longrange_result_dict(spec)
    _emit(args.output, _json_doc(
        {"header": _header(alpha=args.alpha, dim=args.dim, cutoff=args.cutoff)},
        result))
    return EXIT_OK


def longrange_result_dict(spec: PowerLawSpec) -> dict:
    res = longrange_growth(spec)
    return {
        "ln_lambda_tot": res.ln_lambda_tot,
        "verdict": res.verdict,
        "tail_bound": None if math.isinf(res.tail_bound) else res.tail_bound,
        "max_input_radius": math.exp(-(res.ln_lambda_tot + res.tail_bound))
        if res.verdict == "converges" else 0.0,
    }


def _load_spec(path: str) -> ExperimentSpec:
    """Parse a spec file; a JSON document of the wrong shape (a missing key,
    a short list, a null or mistyped value) is bad input like a bad value."""
    with open(path) as fh:
        text = fh.read()
    try:
        return ExperimentSpec.loads(text)
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed spec: {type(e).__name__}: {e}") from e


def _apply_sampler_flags(spec: ExperimentSpec, args) -> ExperimentSpec:
    from dataclasses import replace

    s = spec.sampler
    if args.samples is not None:
        s = replace(s, num_samples=args.samples)
    if args.seed is not None:
        s = replace(s, seed=args.seed)
    spec.sampler = s
    return spec


def cmd_simulate(args) -> int:
    spec = _apply_sampler_flags(_load_spec(args.spec), args)
    header = _header(seed=spec.sampler.seed, samples=spec.sampler.num_samples)
    run = run_branches(spec)
    if args.format == "jsonl":
        lines = [json.dumps({"meta": header})]
        lines += [json.dumps({"outcome": s}) for s in run.outcomes]
        _emit(args.output, "\n".join(lines) + "\n")
    else:
        rows = [(k, v, v / len(run.outcomes))
                for k, v in sorted(run.counts.items())]
        _emit(args.output, _csv(header, ["outcome", "count", "frequency"], rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _apply_sampler_flags(_load_spec(args.spec), args)
    # the oracle first: a spec above its dense limit fails before sampling
    exact = exact_distribution(spec)
    run = run_branches(spec)
    tv = empirical_tv(run.counts, exact.probs)
    _emit(args.output, _json_doc(
        {"header": _header(seed=spec.sampler.seed,
                           samples=spec.sampler.num_samples)},
        {
            "tv": tv,
            "samples": spec.sampler.num_samples,
            "outcomes": len(exact.probs),
            "pruned_mass": exact.pruned_mass,
            "residual_budget": len(spec.gates) * EXACT_TOL,
        }))
    return EXIT_OK


def cmd_thresholds(args) -> int:
    rows = []
    for dim in range(1, args.max_dim + 1):
        b = matter_bounds(dim, literal_exponent=args.literal_exponent)
        rows.append((dim, b.lower, b.upper))
    text = _csv(_header(max_dim=args.max_dim,
                        literal_exponent=args.literal_exponent,
                        coarse_grain_1d=coarse_grain_threshold_1d()),
                ["D", "lower", "upper"], rows)
    _emit(args.output, text)
    return EXIT_OK


def cmd_search_space(args) -> int:
    header = _header(delta=args.delta, phi=args.phi, N=args.discretization,
                     search_tol=args.search_tol)
    baseline = cylinder_max_input_radius(args.delta, args.phi)
    if args.format == "csv":
        best, rows = bspace_search_rows(args.delta, args.phi,
                                        n=args.discretization,
                                        tol=args.search_tol)
        _emit(args.output, _csv(header + f" | best={best!r}",
                                ["r", "feasible", "R1"], rows))
        return EXIT_OK
    best = max_input_radius_bspace(args.delta, args.phi, n=args.discretization,
                                   tol=args.search_tol)
    _emit(args.output, _json_doc(
        {"header": header},
        {
            "b_space_max_input_radius": best,
            "cylinder_max_input_radius": baseline,
            "improvement": best - baseline,
        }))
    return EXIT_OK


def cmd_exact(args) -> int:
    spec = _load_spec(args.spec)
    dist = exact_distribution(spec)
    rows = [(k, v) for k, v in sorted(dist.probs.items())]
    _emit(args.output, _csv(
        _header(nodes=len(spec.node_ids()), pruned_mass=dist.pruned_mass),
        ["outcome", "probability"], rows))
    return EXIT_OK


def cmd_recursion(args) -> int:
    res = iterate_recursion(args.radius, args.start, steps=args.steps)
    rows = list(enumerate(res.trajectory, start=1))
    verdict = res.verdict
    if res.verdict == "converged":
        verdict += f" to {res.value!r}"
    elif res.verdict == "diverged":
        verdict += f" at step {res.step}"
    _emit(args.output, _csv(
        _header(radius=args.radius, start=args.start, verdict=verdict),
        ["n", "R_n"], rows))
    return EXIT_OK


def cmd_eval(args) -> int:
    """Scalar operations as JSON-in/JSON-out evaluations."""
    op = args.op
    if op == "lambda":
        result = {"lambda": lambda_phi(args.phi)}
    elif op == "lemma1":
        result = {"feasible": lemma1_feasible(args.fa, args.fb, args.phi)}
    elif op == "cz":
        result = {"feasible": cz_feasible(args.fa, args.fb)}
    elif op == "theta-max":
        result = {"theta_max": theta_max(args.phi, args.delta, args.temperature),
                  "theta_max_deg": math.degrees(
                      theta_max(args.phi, args.delta, args.temperature))}
    elif op == "telescoping":
        fam = telescoping_family(args.alpha)
        result = {"p": fam.p, "c": fam.c, "r0": fam.r0}
    elif op == "steer-max":
        result = {"steered_radius": steer_max(args.fa, args.fb)}
    elif op == "fixed-points":
        result = {"fixed_points": sorted(fixed_points(args.fa))}
    elif op == "coarse-grain":
        result = {"threshold": coarse_grain_threshold_1d()}
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown op {op}")
    _emit(args.output, _json_doc({"header": _header(op=op)}, result))
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="cylsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    g = sub.add_parser("growth", help="growth factor curve lambda(phi)")
    g.add_argument("--points", type=_count, default=100)
    add_output(g)
    g.set_defaults(fn=cmd_growth)

    pd = sub.add_parser("phase-diagram", help="simulability boundary theta(phi)")
    pd.add_argument("--delta", type=int, required=True)
    pd.add_argument("--points", type=_count, default=50)
    pd.add_argument("--temperature", type=_finite, default=0.0)
    add_output(pd)
    pd.set_defaults(fn=cmd_phase_diagram)

    lr = sub.add_parser("longrange", help="power-law growth sums and the "
                                          "telescoping-family sweep")
    lr.add_argument("--alpha", type=_finite, required=True)
    lr.add_argument("--alpha-max", type=_finite, default=None,
                    help="sweep up to this alpha (CSV of telescoping thetas)")
    lr.add_argument("--points", type=_count, default=50)
    lr.add_argument("--dim", type=int, default=1)
    lr.add_argument("--time", type=_finite, default=1.0)
    lr.add_argument("--nn-phase", type=_finite, default=None)
    lr.add_argument("--cutoff", type=int, default=100000)
    add_output(lr)
    lr.set_defaults(fn=cmd_longrange)

    sim = sub.add_parser("simulate", help="sample an experiment spec")
    sim.add_argument("--spec", required=True)
    sim.add_argument("--samples", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    add_output(sim)
    sim.set_defaults(fn=cmd_simulate)

    ver = sub.add_parser("verify", help="sample and compare against the "
                                        "dense oracle (TV report)")
    ver.add_argument("--spec", required=True)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    add_output(ver)
    ver.set_defaults(fn=cmd_verify)

    th = sub.add_parser("thresholds", help="matter existence bounds per dimension")
    th.add_argument("--max-dim", type=_count, default=6)
    th.add_argument("--literal-exponent", action="store_true")
    add_output(th)
    th.set_defaults(fn=cmd_thresholds)

    ss = sub.add_parser("search-space", help="B-space vs cylinder input radius")
    ss.add_argument("--delta", type=int, required=True)
    ss.add_argument("--phi", type=_finite, default=math.pi)
    ss.add_argument("--discretization", type=int, default=40)
    ss.add_argument("--search-tol", type=_finite, default=1e-4)
    ss.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(ss)
    ss.set_defaults(fn=cmd_search_space)

    ex = sub.add_parser("exact", help="dense-oracle outcome distribution (CSV)")
    ex.add_argument("--spec", required=True)
    add_output(ex)
    ex.set_defaults(fn=cmd_exact)

    rc = sub.add_parser("recursion", help="steering recursion trajectory (CSV)")
    rc.add_argument("--radius", type=_finite, required=True)
    rc.add_argument("--start", type=_finite, required=True)
    rc.add_argument("--steps", type=_count, default=10000)
    add_output(rc)
    rc.set_defaults(fn=cmd_recursion)

    ev = sub.add_parser("eval", help="single scalar operations, JSON out")
    ev.add_argument("--op", required=True,
                    choices=("lambda", "lemma1", "cz", "theta-max",
                             "telescoping", "steer-max", "fixed-points",
                             "coarse-grain"))
    ev.add_argument("--phi", type=_finite, default=math.pi)
    ev.add_argument("--fa", type=_finite, default=0.0)
    ev.add_argument("--fb", type=_finite, default=0.0)
    ev.add_argument("--delta", type=int, default=2)
    ev.add_argument("--temperature", type=_finite, default=0.0)
    ev.add_argument("--alpha", type=_finite, default=3.0)
    add_output(ev)
    ev.set_defaults(fn=cmd_eval)
    return p


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep freed memory for reuse.  By default it returns
    the free top of the heap to the OS once that exceeds 128 KiB, so arrays
    that the sampler, the oracle and the LP searches free and allocate again
    fault their pages in afresh (about 600 more page faults on an
    8000-sample chain run).  Freeing a block served by mmap raises malloc's
    dynamic thresholds to that block's size (mallopt(3)): smaller blocks then
    come from the heap, which keeps up to twice that size free.  Other
    allocators just allocate and free the block, whose pages are never
    touched.  The criterion-5 search-space run faults in about 1700 pages
    with a 4 MiB block, 2700 with 2 MiB and 6700 without."""
    np.empty(4 << 20, dtype=np.uint8)  # freed at once


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except InfeasibleRequest as e:
        sys.stderr.write(f"infeasible: {e}\n")
        return EXIT_INFEASIBLE
    except SolverFailure as e:
        sys.stderr.write(f"solver failure: {e}\n")
        return EXIT_SOLVER
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bad input: {e}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
