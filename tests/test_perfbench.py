"""The benchmark's span tracer still installs over the package's layer modules.

``perfbench/run.py --trace 1`` imports every layer module by name and wraps
its public functions; a renamed or deleted module would break it only
there, so this runs one traced ``exponent`` invocation the same way.  It
also pins the tracer's debts: every verify check must be wrappable, and
the per-layer metrics whose function is gone are listed.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_exponent_invocation(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    from guesswork import cli, exponents

    original = exponents.model_exponent_dual
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.invoke(cli.main, [
            "exponent", "--config", str(ROOT / "docs" / "examples" / "config_exponent.json"),
            "--out", str(tmp_path / "curve.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert exponents.model_exponent_dual is original
    summary = tracer.summary()
    calls = dict(zip(summary["names"], summary["calls"]))
    assert calls["cli.main"] == 1
    assert calls["exponents.model_exponent_dual"] >= 1


def test_every_verify_check_wrapped_and_restored(monkeypatch):
    # a check that install cannot find among the wrapped functions breaks
    # ``run.py --trace 1``; uninstall puts the original tuple back
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer, _CheckSpan

    from guesswork import verify

    original = verify.ALL_CHECKS
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = verify.ALL_CHECKS
    finally:
        tracer.uninstall()
    assert verify.ALL_CHECKS is original
    assert len(wrapped) == len(original)
    for span, check in zip(wrapped, original):
        assert isinstance(span, _CheckSpan) and span.__code__ is check.__code__


# Functions that a PER_LAYER metric still names but the package no longer
# has; their metrics read 0 in every run until the benchmark drops them.
GONE = {"optimize.minimize_scan_golden", "exponents.markov_exponent_grid",
        "exponents.iid_exponent_dual", "exponents.thresholds", "sources.perron_root",
        "sources.materialize"}


def test_per_layer_functions_that_are_gone(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import LAYER_MODULES, PER_LAYER

    gone = set()
    for metric, _, _ in PER_LAYER:
        parts = metric.split(".")
        if len(parts) != 3 or parts[0] not in LAYER_MODULES:
            continue
        layer, fn, field = parts
        attr = f"check_{fn}" if layer == "verify" else fn
        module = importlib.import_module(f"guesswork.{layer}")
        if field in ("calls", "self_s", "wall_s") and not hasattr(module, attr):
            gone.add(f"{layer}.{fn}")
    assert gone == GONE
