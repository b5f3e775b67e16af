"""Correctness checks on the CLI outputs of one workload run.

Every output row is checked by identities that hold for any seed:

- ``bounds`` and ``simulate``: the row's ``ok`` column is True;
- ``sweep``: the sandwich lower - lower_slack <= relaxed <= upper;
- ``exponent``: H_P <= H' for the curve and, where the ``grid_check``
  column exists (Markov models), |grid_check - E| <= 2e-2;
- ``verify``: every check passed and ``all_passed`` is true.

A row also fails when its invocation exits non-zero, writes the wrong
number of rows, or writes different bytes on a repeated pass.  For the
default seed the outputs are further compared with reference outputs
recorded from the seed commit, column by column with the tolerances in
``TOLERANCES``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SLACK = 1e-12
GRID_CHECK_TOL = 2e-2
DEFAULT_SEED = 0

# (kind, tolerance) per column; columns not listed must match exactly.
# H_prime may move to its analytic value by up to 1e-3 once the threshold
# bisection is replaced, so it alone gets a loose tolerance.
TOLERANCES = {
    **{c: ("abs", 1e-9) for c in (
        "E", "grid_check", "H_P", "E_max", "lower", "lower_slack", "relaxed",
        "relaxed_slack", "upper", "dual", "gap", "exponent", "compression", "gap_bound",
        "bf_exponent", "bracket_lo", "bracket_hi", "bracket_width")},
    "moment": ("rel", 1e-9),
    "bf_max_moment": ("rel", 1e-9),
    "H_prime": ("abs", 1e-3),
}


def read_csv(path: Path) -> tuple:
    """(preamble dict, header list, rows as lists of strings) of a CLI CSV file."""
    preamble, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            preamble[key] = value
        elif line:
            lines.append(line.split(","))
    return preamble, lines[0], lines[1:]


def _row_failures(command: str, preamble: dict, header: list, rows: list) -> int:
    col = {name: i for i, name in enumerate(header)}
    if command in ("bounds", "simulate"):
        return sum(row[col["ok"]] != "True" for row in rows)
    if command == "sweep":
        bad = 0
        for row in rows:
            lower, slack, relaxed, upper = (float(row[col[c]]) for c in
                                            ("lower", "lower_slack", "relaxed", "upper"))
            bad += not (lower - slack <= relaxed + SLACK and relaxed <= upper + SLACK)
        return bad
    if command == "exponent":
        if not float(preamble["H_P"]) <= float(preamble["H_prime"]) + SLACK:
            return len(rows)
        if "grid_check" not in col:
            return sum(not math.isfinite(float(row[col["E"]])) for row in rows)
        return sum(not abs(float(row[col["grid_check"]]) - float(row[col["E"]])) <= GRID_CHECK_TOL
                   for row in rows)
    raise ValueError(f"no check for command {command!r}")


def _verify_failures(path: Path) -> tuple:
    doc = json.loads(path.read_text())
    bad = sum(not c["passed"] for c in doc["checks"])
    if not doc["all_passed"] and bad == 0:
        bad = len(doc["checks"])
    return len(doc["checks"]), bad


def _close(kind_tol, ref: str, got: str) -> bool:
    if ref == got:
        return True
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return False
    kind, tol = kind_tol
    scale = max(abs(a), abs(b)) if kind == "rel" else 1.0
    return abs(a - b) <= tol * scale


def _reference_mismatches(out: Path, ref: Path) -> int:
    """Rows of ``out`` that differ from the reference file ``ref``."""
    if out.suffix == ".json":
        got, want = json.loads(out.read_text()), json.loads(ref.read_text())
        pairs = list(zip(got["checks"], want["checks"]))
        bad = sum((g["check"], g["passed"]) != (w["check"], w["passed"]) for g, w in pairs)
        return bad + abs(len(got["checks"]) - len(want["checks"]))
    pre, header, rows = read_csv(out)
    ref_pre, ref_header, ref_rows = read_csv(ref)
    if header != ref_header or len(rows) != len(ref_rows) or pre.keys() != ref_pre.keys():
        return max(len(rows), len(ref_rows))
    if not all(_close(TOLERANCES.get(k, ("abs", 0.0)), ref_pre[k], pre[k]) for k in pre):
        return len(rows)
    h_prime = float(ref_pre["H_prime"]) if "H_prime" in ref_pre else None
    bad = 0
    for got, want in zip(rows, ref_rows):
        for name, g, w in zip(header, got, want):
            if name == "branch" and h_prime is not None and g != w:
                # a rate within the H' tolerance of H' may change branch
                if abs(float(got[header.index("R")]) - h_prime) <= TOLERANCES["H_prime"][1]:
                    continue
            if not _close(TOLERANCES.get(name, ("abs", 0.0)), w, g):
                bad += 1
                break
    return bad


def check_outputs(timed: list, passes: list, untimed: list, untimed_pass: dict,
                  seed: int, reference_dir: Path) -> dict:
    """Count attempted and failed output rows over the plan's invocations.

    ``passes`` are the child's records (exit codes and output digests) of
    the passes over the ``timed`` invocations, ``untimed_pass`` its record
    of the single run of the ``untimed`` ones; the files on disk are those
    of the last pass.  ``rows`` counts the timed invocations' output rows.
    """
    attempted = failed = rows_out = 0
    problems = []
    compare = seed == DEFAULT_SEED and reference_dir.is_dir()
    runs = [(inv, i, passes) for i, inv in enumerate(timed)]
    runs += [(inv, i, [untimed_pass]) for i, inv in enumerate(untimed)]
    for inv, i, records in runs:
        expected = inv["rows"]
        attempted += expected
        codes = {p["codes"][i] for p in records}
        digests = {p["digests"][i] for p in records}
        outputs = [Path(o) for o in inv["outputs"]]
        if codes != {0} or len(digests) != 1 or not all(o.exists() for o in outputs):
            failed += expected
            problems.append(f"{inv['name']}: exit codes {sorted(codes)}, "
                            f"{len(digests)} distinct outputs over {len(records)} passes")
            continue
        bad = got_rows = 0
        for out in outputs:
            if inv["command"] == "verify":
                n, b = _verify_failures(out)
            else:
                pre, header, rows = read_csv(out)
                n, b = len(rows), _row_failures(inv["command"], pre, header, rows)
            if compare:
                b = max(b, _reference_mismatches(out, reference_dir / out.name))
            got_rows += n
            bad += b
        rows_out += got_rows if inv["timed"] else 0
        if got_rows != expected:
            problems.append(f"{inv['name']}: {got_rows} rows, expected {expected}")
            bad = expected
        elif bad:
            problems.append(f"{inv['name']}: {bad} failed rows")
        failed += min(bad, expected)
    return {"attempted": attempted, "failed": failed, "rows": rows_out,
            "reference_compared": compare, "problems": problems}
