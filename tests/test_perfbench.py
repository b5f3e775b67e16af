"""The benchmark's span tracer still installs over the package's layer modules.

``perfbench/run.py --trace 1`` imports every layer module by name and wraps
its public functions; a renamed or deleted module would break it only
there, so this runs one traced ``exponent`` invocation the same way.
"""

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
