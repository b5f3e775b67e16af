"""Batch command-line front end with machine-readable CSV/JSON output.

Subcommands: ``exponent`` (single-letter curves), ``bounds`` (finite-n
sandwich), ``simulate`` (cipher attack report), ``sweep`` (finite-n vs
single-letter convergence), ``verify`` (registered identity checks).
Identical config and seed produce byte-identical output: every command
computes its cells in one thread, in config order.  ``--threads`` and the
``threads`` config key are still accepted and checked (at least 1), but
change nothing.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numeric error, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cipher as ci
from . import compression as co
from . import exponents as ex
from . import sources as so
from .errors import CapExceededError, NumericError, ValidationError
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model_path: str = ""
    rhos: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    ns: list = field(default_factory=list)
    out_format: str = "csv"
    out_path: str = ""
    materialize_cap: int = so.DEFAULT_MATERIALIZE_CAP
    brute_force_messages: int = 5
    brute_force_keys: int = 2
    threads: int = 1
    seed: int = 0


def _positive(values, what: str) -> list:
    """``values`` as floats, each positive and finite."""
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list")
    out = [float(v) for v in values]
    if not all(0.0 < v < math.inf for v in out):
        raise ConfigError(f"{what} must be positive and finite")
    return out


def _integer(value, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{what} must be integers")
    return value


def _rate_grid(spec) -> list:
    if isinstance(spec, list):
        return _positive(spec, "key rates")
    if not isinstance(spec, dict):
        raise ConfigError("R must be a list or a {min, max, step} object")
    lo, hi, step = (float(spec[key]) for key in ("min", "max", "step"))
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError("R grid bounds must be finite")
    if step <= 0.0:
        raise ConfigError("R grid step must be positive")
    # checked before the list exists: a tiny step asks for any number of points
    span = (hi - lo) / step + 1e-9
    if span >= so.DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(
            f"an R grid of {span + 1:.4g} points exceeds the cap of {so.DEFAULT_MATERIALIZE_CAP}")
    return _positive([lo + i * step for i in range(int(math.floor(span)) + 1)], "key rates")


def _from_doc(doc: dict, base: Path) -> RunConfig:
    cfg = RunConfig()
    if "model" in doc:
        cfg.model_path = str((base / doc["model"]).resolve())
    cfg.rhos = _positive(doc.get("rho", []), "rho values")
    if "R" in doc:
        cfg.rates = _rate_grid(doc["R"])
    cfg.ns = [_integer(n, "n values") for n in doc.get("n", [])]
    if any(n < 1 for n in cfg.ns):
        raise ConfigError("n values must be positive integers")
    cfg.out_format = doc.get("format", "csv")
    cfg.out_path = doc.get("out", "")
    caps = doc.get("caps", {})
    cfg.materialize_cap = _integer(caps.get("materialize", cfg.materialize_cap), "caps")
    cfg.brute_force_messages = _integer(
        caps.get("brute_force_messages", cfg.brute_force_messages), "caps")
    cfg.brute_force_keys = _integer(caps.get("brute_force_keys", cfg.brute_force_keys), "caps")
    if cfg.materialize_cap < 1 or cfg.brute_force_messages < 1 or cfg.brute_force_keys < 0:
        raise ConfigError("caps must be positive")
    cfg.threads = _integer(doc.get("threads", 1), "threads")
    cfg.seed = _integer(doc.get("seed", 0), "seed")
    return cfg


def load_config(path: str, overrides) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    try:
        cfg = _from_doc(doc, Path(path).parent)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"malformed config field: {type(exc).__name__}: {exc}")
    return _apply_overrides(cfg, overrides)


def _apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply --format, --out, --threads and --seed to ``cfg``, then validate it."""
    if overrides.format:
        cfg.out_format = overrides.format
    if overrides.out:
        cfg.out_path = overrides.out
    if overrides.threads is not None:
        cfg.threads = overrides.threads
    if overrides.seed is not None:
        cfg.seed = overrides.seed
    if cfg.out_format not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if not isinstance(cfg.out_path, str):
        raise ConfigError("out must be a path")
    if cfg.threads < 1:
        raise ConfigError("thread count must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return f"{x:.12g}"
    return str(x)


def _csv(header: list, rows: list, preamble: list = ()) -> str:
    lines = [f"# {line}" for line in preamble]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the output file: {exc}") from None


def _require(cfg: RunConfig, *, model=False, rhos=False, rates=False, ns=False):
    if model and not cfg.model_path:
        raise ConfigError("this command needs a 'model' entry in the config")
    if rhos and not cfg.rhos:
        raise ConfigError("this command needs a nonempty 'rho' list")
    if rates and not cfg.rates:
        raise ConfigError("this command needs an 'R' grid")
    if ns and not cfg.ns:
        raise ConfigError("this command needs a nonempty 'n' list")


def _out_paths(cfg: RunConfig, command: str) -> list:
    """The path of each document ``command`` writes, "" for stdout.

    ``exponent`` writes one document per rho, and with several rho values
    each file name gets a ``_rho<value>`` suffix (12 significant digits).
    A path that names a directory or lies in a missing one, or is shared
    by two rho values, raises :class:`ConfigError`, so ``main`` checks
    them all before any computation.
    """
    count = len(cfg.rhos) if command == "exponent" else 1
    if not cfg.out_path:
        return [""] * count
    base = Path(cfg.out_path)
    paths = [base] * count
    if len(paths) > 1 and not base.is_dir():
        paths = [base.with_name(f"{base.stem}_rho{_fmt(rho)}{base.suffix}") for rho in cfg.rhos]
        if len(set(paths)) < len(paths):
            raise ConfigError("two rho values would write the same output file")
    for path in [base, *paths]:
        if path.is_dir():
            raise ConfigError(f"output path {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"output directory {path.parent} does not exist")
    return [str(path) for path in paths]


def cmd_exponent(cfg: RunConfig) -> int:
    _require(cfg, model=True, rhos=True, rates=True)
    # every curve comes from one batched solve
    curves = ex.build_curve(so.load_model(cfg.model_path), cfg.rhos, cfg.rates)
    for curve, out in zip(curves, _out_paths(cfg, "exponent")):
        header = ["R", "E", "branch"] + (["grid_check"] if curve.lower is not None else [])
        columns = [curve.rates.tolist(), curve.values.tolist(), curve.branches]
        # a chain's curve carries its twisted-chain witness, a certified lower bound on E
        if curve.lower is not None:
            columns.append(curve.lower.tolist())
        rows = [list(row) for row in zip(*columns)]
        preamble = [
            f"rho={_fmt(curve.rho)}",
            f"H_P={_fmt(curve.h_source)}",
            f"H_prime={_fmt(curve.h_saturation)}",
            f"E_max={_fmt(curve.e_max)}",
        ]
        if cfg.out_format == "csv":
            text = _csv(header, rows, preamble)
        else:
            text = json.dumps({
                "rho": curve.rho,
                "H_P": curve.h_source,
                "H_prime": curve.h_saturation,
                "E_max": curve.e_max,
                "samples": [dict(zip(header, row)) for row in rows],
            }, indent=2) + "\n"
        _emit(text, out)
    return EXIT_OK


def _law_rows(cfg: RunConfig, model, n: int, row, per_n) -> list:
    # the spectrum lives only in this frame, so one law is held at a time
    law = so.n_letter_spectrum(model, n, cap=cfg.materialize_cap)
    extra = per_n(model, law, n, np.array(cfg.rhos)[:, None], np.array(cfg.rates))
    cells = [(rho, r) for rho in cfg.rhos for r in cfg.rates]
    return [row(model, law, n, rho, r, *more) for (rho, r), more in zip(cells, extra)]


def _run_finite(cfg: RunConfig, header: list, row, per_n, to_json=None) -> int:
    """Rows ``row(model, law, n, rho, R, *extra)`` of every (n, rho, R) cell, in config order.

    Each n builds the spectrum ``law`` of its n-letter law once, with
    :func:`sources.n_letter_spectrum`, which forms no dense law, and maps
    its (rho, R) cells.  ``per_n(model, law, n, rhos, rates)`` computes
    what the cells of one n share in one batch, such as the dual over
    every (rho, R) cell (``rhos`` is a column, ``rates`` a row), and
    returns one ``extra`` tuple per cell, rho-major.  JSON is
    ``{"rows": [...]}`` unless ``to_json`` builds the document from the
    rows.
    """
    _require(cfg, model=True, rhos=True, rates=True, ns=True)
    model = so.load_model(cfg.model_path)
    rows = [out for n in cfg.ns for out in _law_rows(cfg, model, n, row, per_n)]
    if cfg.out_format == "csv":
        text = _csv(header, rows)
    else:
        doc = to_json(rows) if to_json else {"rows": [dict(zip(header, r)) for r in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    _emit(text, cfg.out_path)
    return EXIT_OK


def _bounds_records(rows: list) -> dict:
    records = [{"n": n, "rho": rho, "R": r, "value": value, "bound_kind": kind, "slack": slack}
               for n, rho, r, lo, lo_slack, mid, mid_slack, up, _ in rows
               for kind, value, slack in (("lower", lo, lo_slack), ("relaxed", mid, mid_slack),
                                          ("upper", up, 0.0))]
    return {"records": records, "violations": sum(not row[-1] for row in rows)}


def cmd_bounds(cfg: RunConfig) -> int:
    def row(model, law, n, rho, r, upper):
        lower = co.lower_bound_finite(law, n, rho, r)
        relaxed = co.relaxed_optimum(law, n, rho, r)
        ok = (lower.value - lower.slack <= relaxed.value + 1e-12
              and relaxed.value <= upper + 1e-12)
        return (n, rho, r, lower.value, lower.slack, relaxed.value, relaxed.slack, upper, ok)

    return _run_finite(cfg, ["n", "rho", "R", "lower", "lower_slack", "relaxed",
                             "relaxed_slack", "upper", "ok"], row,
                       lambda model, law, n, rhos, rates: zip(
                           co.upper_bound_finite(law, n, rhos, rates).ravel().tolist()),
                       _bounds_records)


def cmd_simulate(cfg: RunConfig) -> int:
    def per_n(model, law, n, rhos, rates):
        # the brute-force bracket needs the dense law, built only when it is that small
        small = law.size <= cfg.brute_force_messages
        p_n = so.materialize(model, n, cap=cfg.materialize_cap) if small else None
        return [(p_n,)] * (rhos.size * rates.size)

    def row(model, law, n, rho, r, p_n):
        achieved = ci.guessing_exponent_achieved(law, n, rho, r)
        relaxed = co.relaxed_optimum(law, n, rho, r)
        try:
            bound = math.log((4.0 * achieved.harmonic) ** rho * (2.0 + rho)) / n
        except OverflowError:
            raise NumericError(
                f"the gap bound (4 H_N)^rho (2 + rho) overflows at rho={rho:g}") from None
        gap = abs(achieved.exponent - relaxed.value)
        ok = gap <= bound + relaxed.slack + 1e-12
        out = [n, rho, r, achieved.k, achieved.num_keys, achieved.num_messages,
               achieved.moment, achieved.exponent, relaxed.value, bound, gap, ok]
        if p_n is not None and achieved.k <= cfg.brute_force_keys:
            result = ci.brute_force_best_cipher(
                p_n, achieved.k, rho,
                max_messages=cfg.brute_force_messages,
                max_keys=cfg.brute_force_keys,
            )
            bf_exp = math.log(result.max_moment) / n
            lo, hi = sorted((achieved.exponent, bf_exp))
            out += [result.max_moment, bf_exp, lo, hi, hi - lo]
        else:
            out += ["", "", "", "", ""]
        return out

    return _run_finite(cfg, ["n", "rho", "R", "k", "num_keys", "num_messages", "moment",
                             "exponent", "compression", "gap_bound", "gap", "ok",
                             "bf_max_moment", "bf_exponent", "bracket_lo", "bracket_hi",
                             "bracket_width"], row, per_n)


def cmd_sweep(cfg: RunConfig) -> int:
    duals = []  # the single-letter dual does not depend on n: one call for the run

    def per_n(model, law, n, rhos, rates):
        if not duals:
            duals.extend(ex.model_exponent_dual(model, rhos, rates).ravel().tolist())
        return zip(duals, co.upper_bound_finite(law, n, rhos, rates).ravel().tolist())

    def row(model, law, n, rho, r, dual, upper):
        relaxed = co.relaxed_optimum(law, n, rho, r)
        lower = co.lower_bound_finite(law, n, rho, r)
        return (n, rho, r, dual, relaxed.value, abs(relaxed.value - dual),
                lower.value, lower.slack, upper)

    return _run_finite(cfg, ["n", "rho", "R", "dual", "relaxed", "gap", "lower",
                             "lower_slack", "upper"], row, per_n)


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(seed=cfg.seed)
    rows = [(r.name, "pass" if r.passed else "FAIL", r.detail) for r in results]
    if cfg.out_format == "csv":
        text = _csv(["check", "status", "detail"],
                    [(n, s, d.replace(",", ";")) for n, s, d in rows],
                    preamble=[f"seed={cfg.seed}"])
    else:
        text = json.dumps({
            "seed": cfg.seed,
            "checks": [{"check": n, "passed": s == "pass", "detail": d} for n, s, d in rows],
            "all_passed": all(r.passed for r in results),
        }, indent=2) + "\n"
    _emit(text, cfg.out_path)
    if cfg.out_path:
        width = max(len(r.name) for r in results)
        for r in results:
            sys.stdout.write(f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'}  {r.detail}\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


COMMANDS = {
    "exponent": cmd_exponent,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="guesswork",
        description="Guessing exponents of a key-rate-limited cipher system.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration", default="")
    parser.add_argument("--out", help="output path (default: stdout)", default="")
    parser.add_argument("--format", choices=["csv", "json"], default="")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and checked (at least 1); has no effect")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config, args)
        elif args.command == "verify":
            cfg = _apply_overrides(RunConfig(), args)
        else:
            raise ConfigError("--config is required for this command")
        _out_paths(cfg, args.command)  # refuses a bad output path before any computation
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValidationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
