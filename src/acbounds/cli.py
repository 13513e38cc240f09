"""Command-line surface: bound evaluation, oracle runs, censuses, sweeps.

Reports go to stdout as JSON (default), csv, or text; exact rationals are
serialized as "p/q" strings so nothing certified passes through floats.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget or
convergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    BoundParams,
    atom_general_bound,
    halasz_atom_bound,
    halasz_sbp_bound,
    howard_oskolkov_bound,
    improved_constant_bound,
    odlyzko_bound,
    rogozin_bound,
    sbp_general_bound,
)
from .exactmat import BudgetExceededError, ExactMatrix, NonconvergenceError
from .hadamard import (
    enumerate_partial_hadamard,
    feasibility_condition,
    greedy_rank_partition,
    hadamard_upper_bound_exponent,
    pipeline_bound_check,
)
from .normal import improved_case_constants, is_n_normal, partial_census, solve_case_constants
from .oracle import atom_distribution, combinatorial_dimension, count_sign_solutions, levy_lower_bound
from .sweeps import run_elo_sweep, run_halasz_sweep, run_replication_sweep
from .system import VectorSystem

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _params_dict(params: BoundParams) -> dict:
    return {"M": params.M, "eps": params.eps, "delta": params.delta,
            "lam": params.lam, "C": params.C}


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _load_matrix(path: str) -> ExactMatrix:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return ExactMatrix.from_json(stripped)
    try:  # a text matrix is never JSON: its header has two tokens
        json.loads(stripped)
    except ValueError:
        return ExactMatrix.from_text(text)
    raise ValueError("matrix JSON must be an object")


def _load_system(path: str) -> VectorSystem:
    return VectorSystem.from_json(Path(path).read_text())


def _emit(report: dict, fmt: str, seed=None) -> None:
    body = {"tool": "acbounds", "version": __version__}
    if seed is not None:
        body["seed"] = seed
    body.update(report)
    if fmt == "json":
        print(json.dumps(body, sort_keys=True))
    elif fmt == "text":
        for key in sorted(body):
            print(f"{key}: {body[key]}")
    elif fmt == "csv":
        keys = sorted(body)
        print(",".join(keys))
        print(",".join(json.dumps(body[k]) if isinstance(body[k], (dict, list)) else str(body[k]) for k in keys))
    else:
        raise ValueError(f"unknown format {fmt}")


def _finite(x: float):
    """x, or None (JSON null) for inf and NaN, which JSON has no number for."""
    return x if math.isfinite(x) else None


def _ints(text: str):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _floats(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _cmd_bound(args) -> int:
    kind = args.kind
    if kind == "odlyzko":
        _emit({"bound": str(odlyzko_bound(args.d))}, args.format)
    elif kind == "elo":
        from math import comb

        _emit({"bound": f"{comb(args.n, args.n // 2)}/{1 << args.n}"}, args.format)
    elif kind == "halasz-atom":
        if args.system:
            system = _load_system(args.system)
            ranks, ell = system.block_ranks(), system.ell
        else:
            ranks, ell = _ints(args.ranks), args.ell
        value = halasz_atom_bound(ranks, ell)
        exact = isinstance(value, Fraction)
        bound = _rat(value) if exact else value
        _emit({"ranks": list(ranks), "ell": ell, "bound": bound, "exact": exact}, args.format)
    elif kind == "halasz-sbp":
        system = _load_system(args.system)
        params = BoundParams(M=args.M, eps=args.eps, lam=args.lam, C=args.C)
        _emit(
            {"bound": halasz_sbp_bound(system, params), "params": _params_dict(params)},
            args.format,
        )
    elif kind == "atom-general":
        system = _load_system(args.system)
        value = atom_general_bound(system, args.lam, C=args.C, divisor=args.divisor,
                                   use_tuple_denominator=args.tuple_denominator)
        _emit({"bound": value, "lam": args.lam, "C": args.C, "divisor": args.divisor},
              args.format)
    elif kind == "sbp-general":
        system = _load_system(args.system)
        params = BoundParams(M=args.M, eps=args.eps, lam=args.lam, C=args.C)
        value = sbp_general_bound(system, params, divisor=args.divisor,
                                  include_2d_prefactor=args.with_2d_prefactor)
        _emit(
            {
                "bound": value,
                "params": _params_dict(params),
                "divisor": args.divisor,
                "with_2d_prefactor": args.with_2d_prefactor,
            },
            args.format,
        )
    elif kind == "rogozin":
        _emit(
            {
                "bound": rogozin_bound(_floats(args.complements), C=args.C),
                "complements": _floats(args.complements),
                "C": args.C,
            },
            args.format,
        )
    elif kind == "howard":
        _emit(
            {
                "howard_oskolkov": howard_oskolkov_bound(args.d, args.m),
                "improved": improved_constant_bound(args.d, args.m),
            },
            args.format,
        )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kind = args.kind
    cap = {} if args.cap is None else {"cap": args.cap}  # else each kind's default
    if kind == "atoms":
        system = _load_system(args.system)
        table = atom_distribution(system, **cap)
        atoms = [
            {"point": list(p), "mass": _rat(q)} for p, q in sorted(table.probs.items())
        ]
        _emit(
            {"max_atom": _rat(table.max_atom()), "support": len(atoms), "atoms": atoms},
            args.format,
        )
    elif kind == "count":
        matrix = _load_matrix(args.matrix)
        target = tuple(_ints(args.target)) if args.target else None
        count = count_sign_solutions(matrix, target, **cap)
        _emit({"count": str(count)}, args.format)
    elif kind == "combdim":
        matrix = _load_matrix(args.matrix)
        count, d_pm = combinatorial_dimension(matrix, **cap)
        _emit({"count": str(count), "d_pm": d_pm}, args.format)
    elif kind == "levy":
        system = _load_system(args.system)
        value = levy_lower_bound(system, args.radius, centers=args.centers, **cap)
        _emit({"levy_lower_bound": _rat(value), "radius": args.radius}, args.format)
    return EXIT_OK


def _cmd_rank_partition(args) -> int:
    matrix = _load_matrix(args.matrix)
    partition = greedy_rank_partition(matrix, args.r, args.ell)
    if partition is None:
        _emit({"feasible": False, "r": args.r, "ell": args.ell}, args.format)
        return EXIT_VERIFICATION
    _emit(
        {
            "feasible": True,
            "r": args.r,
            "ell": args.ell,
            "blocks": [list(b) for b in partition.blocks],
        },
        args.format,
    )
    return EXIT_OK


def _cmd_hadamard(args) -> int:
    kind = args.kind
    if kind == "census":
        result = enumerate_partial_hadamard(
            args.k,
            args.n,
            budget=args.budget,
            fix_first_row=args.fix_first_row,
        )
        _emit(result.to_json(), args.format)
        return EXIT_OK
    if kind == "verify":
        report = pipeline_bound_check(
            args.k,
            args.n,
            budget=args.budget,
            fix_first_row=args.fix_first_row,
        )
        _emit(report.to_json(), args.format)
        return EXIT_OK if report.ok() else EXIT_VERIFICATION
    if kind == "exponent":
        value = hadamard_upper_bound_exponent(args.n, args.c1, args.c2, args.C)
        _emit({"exponent": value, "trivial_exponent": args.n * (args.n + 1) // 2}, args.format)
        return EXIT_OK
    if kind == "feasible":
        _emit(
            {"feasible": feasibility_condition(args.k, args.n, args.r, args.ell)},
            args.format,
        )
        return EXIT_OK
    return EXIT_USAGE


def _cmd_normal(args) -> int:
    kind = args.kind
    if kind == "check":
        matrix = _load_matrix(args.matrix)
        if args.target:
            target = _load_matrix(args.target)
        else:
            target = ExactMatrix.from_rows(
                [[0] * matrix.cols for _ in range(matrix.rows)]
            )
        ok = is_n_normal(matrix, target)
        _emit({"normal": ok}, args.format)
        return EXIT_OK if ok else EXIT_VERIFICATION
    if kind == "constants":
        if args.beta_small is not None:
            improved = improved_case_constants(args.beta_small, eps=args.eps)
            analysis = improved.baseline
        else:
            analysis = solve_case_constants(eps=args.eps)
        report = {
            "cases": [
                {"id": c.case_id, "beta": _finite(c.beta), "s": _finite(c.s), "t": _finite(c.t)}
                for c in analysis.restrictions
            ],
            "worst_beta": analysis.worst_beta,
            "c_dv": analysis.c_dv,
        }
        if args.beta_small is not None:
            report["improved"] = {
                "beta_small": args.beta_small,
                "delta": improved.delta_improve,
                "worst_beta": improved.new_worst_beta,
                "c_dv": improved.new_c_dv,
            }
        _emit(report, args.format)
        return EXIT_OK
    if kind == "census":
        if args.target:
            target = _load_matrix(args.target)
        else:
            target = ExactMatrix.from_rows([[0] * args.n for _ in range(args.n)])
        census = partial_census(args.n, target)
        report = census.to_json()
        _emit(report, args.format)
        return EXIT_OK if census.roundtrip_ok and census.extension_bound_ok else EXIT_VERIFICATION
    return EXIT_USAGE


def _cmd_verify(args) -> int:
    kind = args.kind
    if kind == "replication":
        report = run_replication_sweep(
            instances=args.instances,
            seed=args.seed,
            variant=args.variant,
            small_ball=args.small_ball,
        )
    elif kind == "halasz-sweep":
        report = run_halasz_sweep(
            instances=args.instances, seed=args.seed, d_max=args.d_max, n_max=args.n_max
        )
    elif kind == "elo-sweep":
        report = run_elo_sweep(instances=args.instances, seed=args.seed, n_max=args.n_max)
    else:
        return EXIT_USAGE
    _emit(report.to_json(), args.format, seed=args.seed)
    return EXIT_OK if report.ok() else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acbounds",
        description="Anti-concentration bounds, exact oracles, and sign-matrix censuses",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form bound")
    p_bound.add_argument(
        "kind",
        choices=(
            "odlyzko",
            "elo",
            "halasz-atom",
            "halasz-sbp",
            "atom-general",
            "sbp-general",
            "rogozin",
            "howard",
        ),
    )
    p_bound.add_argument("--d", type=int, default=1)
    p_bound.add_argument("--n", type=int, default=1)
    p_bound.add_argument("--m", type=int, default=1)
    p_bound.add_argument("--ranks", type=str, default="")
    p_bound.add_argument("--ell", type=int, default=2)
    p_bound.add_argument("--system", type=str, default="")
    p_bound.add_argument("--M", type=float, default=1.0)
    p_bound.add_argument("--eps", type=float, default=0.5)
    p_bound.add_argument("--lam", type=float, default=1.0)
    p_bound.add_argument("--C", type=float, default=1.0)
    p_bound.add_argument("--complements", type=str, default="")
    p_bound.add_argument("--divisor", type=int, choices=(2, 4), default=4)
    p_bound.add_argument("--tuple-denominator", action="store_true")
    p_bound.add_argument("--with-2d-prefactor", action="store_true")
    p_bound.set_defaults(func=_cmd_bound)

    p_oracle = sub.add_parser("oracle", help="exact brute-force computations")
    p_oracle.add_argument("kind", choices=("atoms", "count", "combdim", "levy"))
    p_oracle.add_argument("--system", type=str, default="")
    p_oracle.add_argument("--matrix", type=str, default="")
    p_oracle.add_argument("--target", type=str, default="")
    p_oracle.add_argument("--radius", type=float, default=0.0)
    p_oracle.add_argument("--centers", choices=("atoms", "atoms+midpoints"), default="atoms")
    p_oracle.add_argument("--cap", type=int, default=None,
                          help="enumeration cap: on n for atoms and levy (default 26) and for "
                               "count (default 40), on the rank for combdim (default 20)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_rank = sub.add_parser("rank-partition", help="greedy rank partition of a matrix")
    p_rank.add_argument("--matrix", type=str, required=True)
    p_rank.add_argument("--r", type=int, required=True)
    p_rank.add_argument("--ell", type=int, required=True)
    p_rank.set_defaults(func=_cmd_rank_partition)

    p_had = sub.add_parser("hadamard", help="orthogonal-row censuses and checks")
    p_had.add_argument("kind", choices=("census", "verify", "exponent", "feasible"))
    p_had.add_argument("--k", type=int, default=1)
    p_had.add_argument("--n", type=int, default=1)
    p_had.add_argument("--r", type=int, default=1)
    p_had.add_argument("--ell", type=int, default=2)
    p_had.add_argument("--budget", type=int, default=10**8,
                       help="census and verify: cap on the class-DP splits examined")
    p_had.add_argument("--fix-first-row", action="store_true")
    p_had.add_argument("--c1", type=float, default=0.1)
    p_had.add_argument("--c2", type=float, default=0.2)
    p_had.add_argument("--C", type=float, default=0.0)
    p_had.set_defaults(func=_cmd_hadamard)

    p_norm = sub.add_parser("normal", help="commutator-constrained matrix machinery")
    p_norm.add_argument("kind", choices=("check", "constants", "census"))
    p_norm.add_argument("--matrix", type=str, default="")
    p_norm.add_argument("--target", type=str, default="")
    p_norm.add_argument("--n", type=int, default=3)
    p_norm.add_argument("--eps", type=float, default=1e-6)
    p_norm.add_argument("--beta-small", type=float, default=None)
    p_norm.set_defaults(func=_cmd_normal)

    p_verify = sub.add_parser("verify", help="seeded randomized verification sweeps")
    p_verify.add_argument("kind", choices=("replication", "halasz-sweep", "elo-sweep"))
    p_verify.add_argument("--instances", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--variant", choices=("symmetrized", "origin-symmetric"),
                          default="symmetrized")
    p_verify.add_argument("--small-ball", action="store_true")
    p_verify.add_argument("--d-max", type=int, default=4)
    p_verify.add_argument("--n-max", type=int, default=20)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (BudgetExceededError, NonconvergenceError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
