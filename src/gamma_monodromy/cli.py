"""Command line interface.

Three subcommands: ``reflections`` extracts reflection vectors from
monodromy and scores them against the Gamma-structure candidates,
``phi`` formats ``mirror.phi_check``, the oscillatory integral against
its residue series, and ``suite`` runs the package acceptance checks.
Each takes only the flags it reads; any other flag is a usage error:

- ``reflections``: --space, --q, --q-arg, --Q, --Q-arg, --k, --m, --tol,
  --out
- ``phi``: --space, --q, --q-arg, --m, --tol, --out, --format
- ``suite``: --only, --out

Output is JSON (schema tag ``gamma-monodromy/1``) with complex numbers
as [re, im] pairs; ``phi`` can emit CSV instead.  Payloads are
deterministic for fixed inputs: grids and summation orders are fixed and
wall-clock timings are kept out of the JSON.  Exit codes: 0 pass,
1 tolerance breach, 2 numerical failure, 64 usage error, an unwritable
--out among them, before anything is computed.  A ``reflections`` loop
that fails numerically (floating-point overflow and invalid values
included) is reported as {"k", "error", "pass": false} beside the loops
that did not, and the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .cohomology import make_blproj, make_proj
from .monodromy import proj_reflection_check, twisted_reflection_check
from .numerics import BranchState, NumericsError

SCHEMA = "gamma-monodromy/1"
EXIT_OK, EXIT_FAIL, EXIT_NUMERIC, EXIT_USAGE = 0, 1, 2, 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for numerics
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


@dataclass
class RunConfig:
    command: str
    space: str | None = None
    q: list | None = None       # [modulus, argument / pi]
    Q: list | None = None
    k: int | None = None
    m: int | None = None
    tol: float = 1e-4
    out: str | None = None
    format: str = "json"


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cvec(v) -> list:
    return [_c(z) for z in np.asarray(v).ravel()]


def parse_space(text: str) -> tuple[str, int]:
    """proj:m or twisted:n, in the ranges of the models the commands build:
    make_proj(m), or make_proj(n - 2) and make_blproj(n)."""
    kind, _, par = (text or "").partition(":")
    if kind not in ("proj", "twisted") or not par.isdigit():
        raise UsageError("invalid space %r, expected proj:m or twisted:n"
                         % text)
    num = int(par)
    try:
        if kind == "proj":
            make_proj(num)
        else:
            make_proj(num - 2)
            make_blproj(num)
    except ValueError as exc:
        raise UsageError("invalid space %r: %s" % (text, exc))
    return kind, num


def _finite(text: str) -> float:
    """The type of every float flag: nan and inf are usage errors."""
    if not math.isfinite(value := float(text)):
        raise UsageError("not a finite number: %s" % text)
    return value


def _check_tol(tol: float) -> float:
    if not 1e-12 <= tol <= 1e-3:
        raise UsageError("tol %g outside [1e-12, 1e-3]" % tol)
    return tol


def _branch_value(pair: list | None, flag: str) -> complex:
    """Modulus/argument pair -> complex value; the branch is explicit in
    the arguments, never inferred from a printed complex number."""
    if pair is None:
        raise UsageError("missing required argument %s" % flag)
    mod, arg_pi = pair
    if mod <= 0:
        raise UsageError("%s modulus must be positive" % flag)
    return complex(mod) * np.exp(1j * math.pi * arg_pi)


def _config_dict(cfg: RunConfig) -> dict:
    """Config echo for the payload; the destination path is dropped so the
    emitted bytes do not depend on where they are written."""
    d = asdict(cfg)
    d.pop("out", None)
    return d


def _emit(payload: dict | str, out: str | None) -> None:
    """Write payload, as JSON unless it is already text, to out or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items()
                if k not in ("seconds", "seconds_per_n")}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return _c(obj)
    return obj


def _proj_entry(rep: dict, tol: float) -> dict:
    res = rep["monodromy"].residuals
    return {"k": rep["k"], "alpha": _cvec(rep["alpha"]),
            "candidate": _cvec(rep["candidate"]), "sign": rep["sign"],
            "residual": rep["residual"], "tolerance": tol,
            "pairing_residual": res["pairing"], "pairing_tolerance": 1e-6,
            "solver_residuals": {kk: float(vv) for kk, vv in res.items()},
            "counters": dict(rep["monodromy"].counters),
            "pass": bool(rep["residual"] < tol and res["pairing"] < 1e-6)}


def _twisted_entry(rep: dict, tol: float) -> dict:
    pair_res = abs(rep["exceptional_pairing"] - 1.0)
    return {"k": rep["k"], "constant": _c(rep["constant"]),
            "constant_deviation": rep["constant_deviation"],
            "fit_residual": rep["fit_residual"], "tolerance": tol,
            "exceptional_pairing": _c(rep["exceptional_pairing"]),
            "pairing_residual": pair_res, "pairing_tolerance": 1e-8,
            "beta": _cvec(rep["beta"]), "candidate": _cvec(rep["candidate"]),
            "pass": bool(rep["constant_deviation"] < tol
                         and rep["fit_residual"] < tol and pair_res < 1e-8)}


def cmd_reflections(cfg: RunConfig) -> int:
    kind, par = parse_space(cfg.space)
    tol = _check_tol(cfg.tol)
    payload = {"schema": SCHEMA, "config": _config_dict(cfg)}
    if kind == "proj":
        n = par + 2
        q = BranchState(_branch_value(cfg.q, "--q"),
                        math.log(cfg.q[0]) + 1j * math.pi * cfg.q[1])
        check = partial(proj_reflection_check, n, q, m=cfg.m)
        entry = _proj_entry
        where = "q = %g e^(%g pi i)" % tuple(cfg.q)
        payload["level"] = -(cfg.m if cfg.m is not None else n)
    else:
        n = par
        Q = _branch_value(cfg.Q, "--Q")
        if cfg.Q[1] != 0.0:
            raise UsageError("twisted spaces require real positive --Q")
        check = partial(twisted_reflection_check, n, Q, m=cfg.m)
        entry = _twisted_entry
        where = "Q = %g (|log Q| must be below 709/%d)" % (cfg.Q[0], n - 1)
    if cfg.k is not None and not 0 <= cfg.k <= n - 2:
        raise UsageError("k %d outside [0, %d]" % (cfg.k, n - 2))
    # the level -m periods carry 1/Gamma(theta + m + 1/2), which vanishes
    # at its nonpositive integers: their matrix is then exactly singular
    m = cfg.m if cfg.m is not None else n
    for theta in np.diag(make_proj(n - 2).theta).real:
        arg = theta + m + 0.5
        if arg <= 0 and arg == round(arg):
            raise UsageError("--m %d makes the period matrix singular: "
                             "theta + m + 1/2 = %d at theta = %g"
                             % (m, arg, theta))
    ks = [cfg.k] if cfg.k is not None else range(n - 1)
    results = payload["results"] = []
    for k in ks:
        try:
            with np.errstate(over="raise", invalid="raise"):
                results.append(entry(check(k), tol))
        except (NumericsError, FloatingPointError, OverflowError) as exc:
            # the other loops are still reported; the exit code says 2
            text = str(exc) if isinstance(exc, NumericsError) \
                else "%s at %s" % (exc, where)
            print("gamma-monodromy: numerical failure at k = %d: %s"
                  % (k, text), file=sys.stderr)
            results.append({"k": k, "error": text, "pass": False})
    payload["pass"] = all(r["pass"] for r in results)
    _emit(payload, cfg.out)
    if any("error" in r for r in results):
        return EXIT_NUMERIC
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_phi(cfg: RunConfig) -> int:
    from . import mirror
    kind, par = parse_space(cfg.space)
    if kind != "proj":
        raise UsageError("phi requires a proj:m space")
    tol = _check_tol(cfg.tol)
    if cfg.q is None:
        raise UsageError("missing required argument --q")
    if cfg.q[1] != 0.0 or cfg.q[0] <= 0:
        raise UsageError("phi requires real positive --q")
    q = float(cfg.q[0])
    n = par + 2
    m = cfg.m if cfg.m is not None else n
    # at m = 1 the contour cannot reach the comparison's 1e-7 at all
    if m < 2:
        raise UsageError("phi requires --m >= 2")
    try:
        with np.errstate(over="raise", invalid="raise"):
            check = mirror.phi_check(n, q, m, tol)
    except (NumericsError, FloatingPointError, OverflowError) as exc:
        print("gamma-monodromy: numerical failure: %s at q = %g" % (exc, q),
              file=sys.stderr)
        return EXIT_NUMERIC
    code = EXIT_OK if check["pass"] else EXIT_FAIL
    zero, comp, expo, mb = (check[key] for key in (
        "zero_window", "series_contour", "exponent", "config"))
    columns = ["lambda", "re_phi_series", "re_phi_mb", "abs_diff"]
    if cfg.format == "csv":
        lines = [",".join(columns)]
        lines += ["%.12g,%.12g,%.12g,%.12g" % tuple(r) for r in comp["rows"]]
        _emit("\n".join(lines) + "\n", cfg.out)
        return code

    payload = {
        "schema": SCHEMA, "config": _config_dict(cfg),
        "n": n, "m": m, "branch_point": float(check["u"]),
        "zero_region": {"max_abs": zero["residual"],
                        "tolerance": zero["bound"],
                        "points": len(zero["scan"]["lambdas"])},
        "comparison": {"rows": comp["rows"], "max_abs_diff": comp["residual"],
                       "max_rel_diff": comp["max_rel_diff"],
                       "tolerance": comp["bound"],
                       "quadrature_error": mb.error_estimate,
                       "quadrature_h": mb.h, "nodes_per_lambda": mb.nodes,
                       "columns": columns},
        "exponent_fit": {"slope": expo["fit"]["slope"],
                         "expected": expo["expected"],
                         "deviation": expo["residual"],
                         "tolerance": expo["bound"],
                         "r_squared": expo["fit"]["r2"]},
        "pass": check["pass"],
    }
    _emit(payload, cfg.out)
    return code


def cmd_suite(cfg: RunConfig, only: str | None) -> int:
    from .suite import run_suite
    try:
        results = run_suite(only=only)
    except ValueError as exc:
        raise UsageError(str(exc))
    for res in results:
        line = "%s  %-14s residual=%.3e tol=%.1e (%.1fs)" % (
            "PASS" if res["pass"] else "FAIL", res["name"],
            res["residual"], res["tol"], res["seconds"])
        print(line)
    ok = all(r["pass"] for r in results)
    if cfg.out:
        payload = {"schema": SCHEMA, "config": _config_dict(cfg),
                   "results": _strip_seconds(results), "pass": ok}
        _emit(payload, cfg.out)
    return EXIT_OK if ok else EXIT_FAIL


# argparse options of every flag
_FLAGS = {
    "space": {"help": "proj:m or twisted:n"},
    "q": {"type": _finite, "help": "modulus of q"},
    "q-arg": {"type": _finite, "default": 0.0,
              "help": "argument of q in units of pi (default 0)"},
    "Q": {"type": _finite, "help": "modulus of Q"},
    "Q-arg": {"type": _finite, "default": 0.0,
              "help": "argument of Q in units of pi (default 0)"},
    "k": {"type": int, "help": "single line-bundle index"},
    "m": {"type": int, "help": "period level magnitude "
          "(default: n of the ambient space)"},
    "tol": {"type": _finite, "default": 1e-4,
            "help": "report tolerance, in [1e-12, 1e-3]"},
    "out": {"help": "write the payload to this path"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "only": {"help": "run a single criterion"},
}

# each command takes only the flags it reads
_COMMANDS = (
    ("reflections", "extract reflection vectors",
     "space q q-arg Q Q-arg k m tol out"),
    ("phi", "oscillatory integral comparison",
     "space q q-arg m tol out format"),
    ("suite", "run the acceptance checks", "only out"),
)


def _to_config(args: argparse.Namespace) -> RunConfig:
    """Fields of flags the command does not take keep their defaults."""
    names = {f.name for f in fields(RunConfig)}
    given = {key: val for key, val in vars(args).items() if key in names}
    for key in ("q", "Q"):
        if given.get(key) is not None:
            given[key] = [given[key], getattr(args, key + "_arg")]
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="gamma-monodromy",
                     description="reflection vectors from quantum "
                                 "cohomology monodromy")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, flags in _COMMANDS:
        sub = subs.add_parser(name, help=text)
        for flag in flags.split():
            sub.add_argument("--" + flag, **_FLAGS[flag])
    try:
        args = parser.parse_args(argv)
        cfg = _to_config(args)
        if cfg.out:
            # an unwritable path fails before any computation; only the
            # payload creates the file
            new = not os.path.exists(cfg.out)
            open(cfg.out, "a").close()
            if new:
                os.remove(cfg.out)
        if args.command == "reflections":
            return cmd_reflections(cfg)
        if args.command == "phi":
            return cmd_phi(cfg)
        return cmd_suite(cfg, args.only)
    except (UsageError, OSError) as exc:
        print("gamma-monodromy: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, np.linalg.LinAlgError, OverflowError) as exc:
        print("gamma-monodromy: numerical failure: %s" % exc,
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
