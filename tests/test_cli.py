import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import guesswork
from guesswork import exponents
from guesswork.cli import main
from guesswork.optimize import bracketed_roots

LN2 = math.log(2.0)


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def iid_model(tmp_path):
    return write_model(tmp_path, {"kind": "iid", "probs": ["0.8", "0.2"]})


class TestExponentCommand:
    def test_linear_rows(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json",
            "rho": [1.0],
            "R": {"min": 0.05, "max": 1.0, "step": 0.05},
        })
        out = tmp_path / "curve.csv"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# rho=1")
        header = lines[4].split(",")
        assert header == ["R", "E", "branch"]
        rows = [line.split(",") for line in lines[5:]]
        assert len(rows) == 20
        for r, e, branch in rows:
            if branch == "linear":
                assert abs(float(e) - float(r)) <= 1e-9

    def test_uniform_binary(self, tmp_path):
        model = write_model(tmp_path, {"kind": "iid", "probs": [0.5, 0.5]})
        cfg = write_config(tmp_path, {
            "model": "model.json",
            "rho": [1.0],
            "R": {"min": 0.1, "max": 1.0, "step": 0.1},
        })
        out = tmp_path / "curve.csv"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[5:]:
            r, e, _ = line.split(",")
            assert abs(float(e) - min(float(r), LN2)) <= 1e-9

    def test_markov_grid_column(self, tmp_path):
        write_model(tmp_path, {"kind": "markov",
                               "transition": [[0.9, 0.1], [0.3, 0.7]]})
        cfg = write_config(tmp_path, {
            "model": "model.json",
            "rho": [1.0],
            "R": [0.3, 0.5],
        })
        out = tmp_path / "curve.csv"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[4].split(",") == ["R", "E", "branch", "grid_check"]
        for line in lines[5:]:
            parts = line.split(",")
            assert abs(float(parts[1]) - float(parts[3])) <= 1e-9

    def test_unifilar_grid_column(self, tmp_path):
        write_model(tmp_path, {"kind": "unifilar", "next_state": [[0, 1], [1, 0]],
                               "emission": [[0.6, 0.4], [0.25, 0.75]], "init_state": 0})
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [0.5, 2.0],
            "R": {"min": 0.05, "max": 0.8, "step": 0.05}, "format": "json",
        })
        assert main(["exponent", "--config", str(cfg), "--out", str(tmp_path / "curve.json")]) == 0
        for name in ("curve_rho0.5.json", "curve_rho2.json"):
            samples = json.loads((tmp_path / name).read_text())["samples"]
            assert {s["branch"] for s in samples} == {"linear", "interior", "saturated"}
            for s in samples:
                assert abs(s["grid_check"] - s["E"]) <= 1e-9

    def test_one_root_per_chain_curve(self, tmp_path, monkeypatch):
        # every curve's E and its witness come from one root solve for the run
        sizes = []

        def spy(g, a, *args):
            sizes.append(np.size(a))
            return bracketed_roots(g, a, *args)

        monkeypatch.setattr(exponents, "bracketed_roots", spy)
        write_model(tmp_path, {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]})
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [0.5, 2.0],
            "R": {"min": 0.05, "max": 0.8, "step": 0.05},
        })
        assert main(["exponent", "--config", str(cfg), "--out", str(tmp_path / "curve.csv")]) == 0
        assert len(sizes) == 1 and min(sizes) > 0

    @pytest.mark.parametrize("doc", [{"kind": "iid", "probs": [0.8, 0.2]},
                                     {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]}])
    def test_one_power_form_per_run(self, tmp_path, monkeypatch, doc):
        # the dual, the thresholds and E_max of every rho share one power form
        built = []
        post_init = guesswork.sources.PowerForm.__post_init__

        def spy(form):
            built.append(form)
            post_init(form)

        monkeypatch.setattr(guesswork.sources.PowerForm, "__post_init__", spy)
        write_model(tmp_path, doc)
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [0.5, 1.0, 2.0],
            "R": {"min": 0.05, "max": 0.8, "step": 0.05},
        })
        assert main(["exponent", "--config", str(cfg), "--out", str(tmp_path / "curve.csv")]) == 0
        assert len(built) == 1

    def test_four_state_chain_in_bounded_memory(self, tmp_path):
        # the child's address space is capped at 512 MB; a transition-matrix
        # grid over this chain needs about 1 GB
        write_model(tmp_path, {"kind": "markov", "transition": [
            [0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1],
            [0.25, 0.25, 0.25, 0.25], [0.3, 0.1, 0.1, 0.5]]})
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": {"min": 0.05, "max": 1.35, "step": 0.05},
        })
        out = tmp_path / "curve.csv"
        code = "\n".join([
            "import resource, sys",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
            "from guesswork.cli import main",
            f"sys.exit(main(['exponent', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))",
        ])
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[4].split(",") == ["R", "E", "branch", "grid_check"]
        assert len(lines[5:]) == 27
        for line in lines[5:]:
            parts = line.split(",")
            assert abs(float(parts[1]) - float(parts[3])) <= 1e-9

    def test_json_format(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [0.5], "R": [0.3, 0.6], "format": "json",
        })
        out = tmp_path / "curve.json"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rho"] == 0.5
        assert len(doc["samples"]) == 2


class TestBoundsCommand:
    def test_sandwich_rows(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json",
            "rho": [1.0],
            "R": [0.3, 0.69],
            "n": [4, 8],
        })
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert line.rsplit(",", 1)[1] == "True"

    def test_gap_shrinks_with_n(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": [0.3],
            "n": [4, 8, 12], "format": "json",
        })
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        relaxed = [r["value"] for r in doc["records"] if r["bound_kind"] == "relaxed"]
        gaps = [abs(v - 0.3) for v in relaxed]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert doc["violations"] == 0

    def test_cap_exit_code(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": [0.3], "n": [8],
            "caps": {"materialize": 16},
        })
        assert main(["bounds", "--config", str(cfg)]) == 4


class TestSimulateCommand:
    def test_closed_form_report(self, tmp_path):
        write_model(tmp_path, {"kind": "explicit",
                               "pmfs": [[0.4, 0.3, 0.2, 0.1]]})
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": [LN2], "n": [1],
            "format": "json",
        })
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["k"] == 1
        assert row["moment"] == pytest.approx(1.4, abs=1e-12)
        assert row["ok"] is True
        # brute-forceable size: bracket columns filled and ordered
        assert row["bracket_lo"] <= row["bracket_hi"]
        assert row["bf_max_moment"] >= 1.4 - 1e-12

    def test_key_covering_space(self, tmp_path):
        write_model(tmp_path, {"kind": "explicit",
                               "pmfs": [[0.4, 0.3, 0.2, 0.1]]})
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": [2 * LN2], "n": [1],
            "format": "json",
        })
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["k"] == 2
        assert row["moment"] == pytest.approx(2.0, abs=1e-12)

    def test_key_bits_past_256(self, tmp_path, iid_model):
        # 2^289 keys: H_N of the padded count stays finite
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [25.0],
                                      "n": [8], "format": "json"})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["k"] == 289 and row["num_keys"] == 2 ** 289
        assert all(math.isfinite(row[key]) for key in ("moment", "exponent", "gap_bound"))
        assert row["ok"] is True

    def test_huge_rate_refused_at_once(self, tmp_path, iid_model):
        # R = 1e300 asks for ~1.4e300 key bits; 2^k is never formed
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [1e300],
                                      "n": [1]})
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "guesswork.cli", "simulate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("numeric error")


class TestSweepCommand:
    def test_gap_column_nonincreasing(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0], "R": [0.3],
            "n": [4, 6, 8, 10, 12], "format": "json",
        })
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        gaps = [row["gap"] for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_two_start_states_past_the_default_cap(self, tmp_path):
        # the docs unifilar structure from both start states at n = 40: 2^40
        # strings under a raised cap, walked run by run
        write_model(tmp_path, {"kind": "unifilar", "next_state": [[0, 1], [1, 0]],
                               "emission": [[0.6, 0.4], [0.25, 0.75]],
                               "init_states": [0.5, 0.5]})
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.5],
                                      "n": [40], "caps": {"materialize": 2 ** 40},
                                      "format": "json"})
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row, = json.loads(out.read_text())["rows"]
        assert row["n"] == 40 and math.isfinite(row["gap"])


class TestVerifyCommand:
    def test_passes_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "tilted-identity" in table
        assert "FAIL" not in table

    def test_seed_override_same_verdicts(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["verify", "--out", str(a), "--seed", "0"]) == 0
        assert main(["verify", "--out", str(b), "--seed", "12345"]) == 0
        statuses_a = [line.split(",")[1] for line in a.read_text().splitlines()[2:]]
        statuses_b = [line.split(",")[1] for line in b.read_text().splitlines()[2:]]
        assert statuses_a == statuses_b

    def test_failure_exit_code(self, monkeypatch):
        from guesswork import cli
        from guesswork.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_all",
            lambda seed: [CheckResult("synthetic", False, "forced failure")],
        )
        assert main(["verify"]) == 1


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["exponent", "--config", path]) == 2
        assert path in capsys.readouterr().err

    def test_flag_replaces_a_config_field_unread(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3],
                                      "seed": "x"})
        assert main(["exponent", "--config", str(cfg)]) == 2
        assert main(["exponent", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "curve.csv")]) == 0

    def test_invalid_model(self, tmp_path):
        write_model(tmp_path, {"kind": "iid", "probs": [0.5, 0.4]})
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3]})
        assert main(["exponent", "--config", str(cfg)]) == 2

    def test_bad_grid(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [1.0],
            "R": {"min": 0.1, "max": 0.5, "step": -0.1},
        })
        assert main(["exponent", "--config", str(cfg)]) == 2

    def test_console_entry_point(self, tmp_path, iid_model):
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3]})
        out = tmp_path / "curve.csv"
        # the child imports the same package as this process, installed or not
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "guesswork.cli", "exponent",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("module", ["scipy.optimize", "concurrent.futures"])
    def test_cli_import_leaves_out(self, module):
        # scipy.optimize serves only the test-facing simplex grid, loaded on
        # first use; every command computes its cells in one thread, with no pool
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, guesswork.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRegressions:
    def test_slowly_mixing_chain_without_init(self, tmp_path):
        from guesswork import model_from_dict

        doc = {"kind": "markov", "transition": [[0.9999, 1e-4], [3.333e-5, 0.99996667]]}
        write_model(tmp_path, doc)
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3]})
        out = tmp_path / "curve.csv"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        assert model_from_dict(doc).init.probs == pytest.approx([0.24998125, 0.75001875],
                                                                abs=1e-9)

    def test_sticky_three_state_chain_without_init(self, tmp_path):
        from guesswork import model_from_dict

        off = 1e-7
        doc = {"kind": "markov", "transition": [[1.0 - 2 * off, off, off],
                                                [off, 1.0 - 2 * off, off],
                                                [off, off, 1.0 - 2 * off]]}
        write_model(tmp_path, doc)
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3]})
        out = tmp_path / "curve.csv"
        assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
        # the rounded rows move the law by up to (row-sum error) / (spectral gap)
        assert model_from_dict(doc).init.probs == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_nan_probability_is_a_config_error(self, tmp_path, capsys):
        write_model(tmp_path, {"kind": "iid", "probs": [math.nan, 1.0]})
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3]})
        assert main(["exponent", "--config", str(cfg)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_bounds_with_huge_rate(self, tmp_path, iid_model):
        # exp(nR) = e^800 overflows a float; the top-set size is decided by logs
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [80.0],
                                      "n": [10]})
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].rsplit(",", 1)[1] == "True"

    def test_simulate_with_huge_key_count(self, tmp_path, iid_model):
        # k = ceil(8 * 4 / ln 2) = 47 key bits: one block of 2^47 covers the
        # 256 strings, so the attack is plain probability-order guessing
        from guesswork import IidSource, Pmf
        from oracles import materialize

        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [4.0],
                                      "n": [8], "format": "json"})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["k"] == 47
        assert row["num_messages"] == 2 ** 47
        p_8 = materialize(IidSource(Pmf([0.8, 0.2])), 8).probs
        plain = math.fsum(q * i for i, q in enumerate(sorted(p_8, reverse=True), start=1))
        assert row["moment"] == pytest.approx(plain, rel=1e-12)

    def test_missing_model_file_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "nope.json", "rho": [1.0], "R": [0.3]})
        assert main(["exponent", "--config", str(cfg)]) == 2
        assert "nope.json" in capsys.readouterr().err


class TestFiniteRunner:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
    def test_one_law_per_n(self, tmp_path, iid_model, monkeypatch, command, threads):
        from guesswork import cipher, compression, sources

        real_build = sources.n_letter_spectrum
        built, laws, spectra, sorts = [], [], [], []

        def n_letter_spectrum(model, n, *args, **kwargs):
            # the previous n's spectrum is released before the next one is built
            assert all(law() is None for law in laws)
            built.append(n)
            out = real_build(model, n, *args, **kwargs)
            laws.append(weakref.ref(out))
            return out

        def spectrum(p):
            spectra.append(p.size)
            return real_spectrum(p)

        def sort_desc(p):
            sorts.append(p.size)
            return real_sort(p)

        real_spectrum, real_sort = sources.spectrum, sources.sort_desc
        monkeypatch.setattr(sources, "n_letter_spectrum", n_letter_spectrum)
        # every module that binds these names, so no call can go around the count
        for module in (sources, compression, cipher):
            for name, fn in (("spectrum", spectrum), ("sort_desc", sort_desc)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [0.5, 1.0],
                                      "R": [0.3, 0.6], "n": [2, 4, 3]})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--threads", str(threads)]) == 0
        assert built == [2, 4, 3]
        # no dense law, not even for simulate's brute-force bracket, which
        # reads the spectrum: the package has no dense builder, and makes no
        # np.unique and no sort of a dense law
        assert not hasattr(sources, "materialize")
        assert spectra == []
        assert sorts == []
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 3 * 2 * 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command,uppers,single_letter", [
        ("bounds", True, False), ("sweep", True, True), ("simulate", False, False)])
    def test_one_dual_per_n_and_rho(self, tmp_path, iid_model, monkeypatch, command,
                                    uppers, single_letter, threads):
        from guesswork import compression, exponents

        real = exponents.model_exponent_dual
        calls = []

        def counting(model, rho, key_rate):
            calls.append((type(model).__name__, np.ravel(rho).tolist(), np.shape(rho),
                          np.shape(key_rate)))
            return real(model, rho, key_rate)

        # the CLI reaches the dual through exponents, the upper bound through compression
        monkeypatch.setattr(exponents, "model_exponent_dual", counting)
        monkeypatch.setattr(compression, "model_exponent_dual", counting)
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [0.5, 1.0],
                                      "R": [0.3, 0.6, 0.9], "n": [2, 4, 3]})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--threads", str(threads)]) == 0
        # one upper-bound dual per n over every (rho, R) cell, and one
        # single-letter dual for the whole run
        cells = ([0.5, 1.0], (2, 1), (3,))
        laws = [("Spectrum", *cells)] * 3
        assert [c for c in calls if c[0] == "Spectrum"] == (laws if uppers else [])
        expected = [("IidSource", *cells)] if single_letter else []
        assert [c for c in calls if c[0] != "Spectrum"] == expected
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 3 * 2 * 3


# Inputs that once ended in a traceback, a silent wrong run or an unbounded
# allocation, each with the exit code and stderr prefix it must give instead.
DIRECTORY = object()
IID = {"kind": "iid", "probs": [0.8, 0.2]}
UNIFILAR = {"kind": "unifilar", "next_state": [[0, 1], [1, 0]],
            "emission": [[0.6, 0.4], [0.25, 0.75]], "init_state": 0}
NOT_UTF8 = b"\xff\xfe{}"


def _cfg(**fields):
    doc = {"model": "model.json", "rho": [1.0], "R": [0.3], "n": [2], **fields}
    return json.dumps(doc).encode()


def _case(command, config, code, prefix, *, model=IID, extra=(), id):
    return pytest.param(command, config, model, extra, code, prefix, id=id)


# ``{tmp}`` in an extra argument stands for the test's directory, which
# also holds a directory named ``taken_rho1.csv``
TWO_RHOS = _cfg(rho=[0.5, 1.0])


FAILURES = [
    _case("exponent", DIRECTORY, 2, "config error", id="config-is-a-directory"),
    _case("exponent", NOT_UTF8, 2, "config error", id="config-not-utf8"),
    _case("exponent", b"[]", 2, "config error", id="config-top-level-list"),
    _case("exponent", _cfg(rho=1), 2, "config error", id="rho-scalar"),
    _case("exponent", _cfg(rho=["x"]), 2, "config error", id="rho-string"),
    _case("exponent", _cfg(threads="x"), 2, "config error", id="threads-string"),
    _case("exponent", _cfg(R={"min": 0.1}), 2, "config error", id="grid-missing-keys"),
    _case("exponent", _cfg(caps=[]), 2, "config error", id="caps-list"),
    _case("exponent", _cfg(model=5), 2, "config error", id="model-number"),
    _case("bounds", _cfg(out=5), 2, "config error", id="out-number"),
    _case("bounds", _cfg(n=[1.5]), 2, "config error", id="n-fractional"),
    _case("bounds", _cfg(n=[math.inf]), 2, "config error", id="n-infinite"),
    _case("exponent", _cfg(rho=[math.nan]), 2, "config error", id="exponent-rho-nan"),
    _case("bounds", _cfg(rho=[math.nan]), 2, "config error", id="bounds-rho-nan"),
    _case("bounds", _cfg(R=[math.nan]), 2, "config error", id="bounds-R-nan"),
    _case("simulate", _cfg(R=[math.nan]), 2, "config error", id="simulate-R-nan"),
    _case("sweep", _cfg(R=[math.nan]), 2, "config error", id="sweep-R-nan"),
    _case("bounds", _cfg(R=[math.inf]), 2, "config error", id="bounds-R-inf"),
    _case("simulate", _cfg(R=[math.inf]), 2, "config error", id="simulate-R-inf"),
    _case("sweep", _cfg(R=[math.inf]), 2, "config error", id="sweep-R-inf"),
    _case("exponent", _cfg(R={"min": 0.1, "max": math.inf, "step": 0.1}), 2, "config error",
          id="grid-max-inf"),
    # 2^40 + 1 points: refused before any list is built
    _case("exponent", _cfg(R={"min": 1.0, "max": 1.0 + 2.0 ** 40, "step": 1.0}), 4,
          "cap exceeded", id="grid-2^40-points"),
    # one integer rule for config and model files: a JSON integer or an
    # integral float, never a bool, a fraction or a string
    _case("bounds", _cfg(n=[True]), 2, "config error", id="n-bool"),
    _case("exponent", _cfg(threads=True), 2, "config error", id="threads-bool"),
    _case("exponent", _cfg(seed=True), 2, "config error", id="seed-bool"),
    _case("bounds", _cfg(caps={"materialize": True}), 2, "config error", id="caps-bool"),
    _case("exponent", _cfg(rho=[True]), 2, "config error", id="rho-bool"),
    _case("bounds", _cfg(), 2, "config error",
          model={**UNIFILAR, "next_state": [[0, 1.5], [1, 0]]}, id="next-state-fractional"),
    _case("bounds", _cfg(), 2, "config error",
          model={**UNIFILAR, "next_state": [[0, "1"], [True, 0]]},
          id="next-state-string-and-bool"),
    _case("bounds", _cfg(), 2, "config error", model={**UNIFILAR, "init_state": 0.9},
          id="init-state-fractional"),
    _case("bounds", _cfg(), 2, "config error", model={**UNIFILAR, "init_state": "1"},
          id="init-state-digit-string"),
    _case("bounds", _cfg(), 2, "config error",
          model={"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]],
                 "init": [0.75, 0.25], "stationary": "false"}, id="stationary-string"),
    _case("bounds", _cfg(), 2, "config error", model={"kind": "iid", "probs": [True, False]},
          id="probs-bool"),
    _case("exponent", _cfg(), 2, "config error", model=NOT_UTF8, id="model-not-utf8"),
    _case("exponent", _cfg(), 2, "config error", model={"kind": "iid"},
          id="model-iid-without-probs"),
    _case("exponent", _cfg(), 2, "config error", model={"kind": "iid", "probs": "ab"},
          id="model-probs-string"),
    _case("exponent", _cfg(), 2, "config error", model={"kind": "iid", "probs": [[0.5], [0.5]]},
          id="model-probs-nested"),
    _case("exponent", _cfg(), 2, "config error", model={"kind": "markov", "transition": 5},
          id="model-transition-number"),
    _case("exponent", _cfg(), 2, "config error",
          model={"kind": "unifilar", "next_state": [[0, 1], [1, 0]],
                 "emission": [[0.5, 0.5], [0.9, 0.1]], "init_state": "a"},
          id="model-init-state-string"),
    # from its start state the source never leaves state 0, so the single-letter
    # dual of the whole state chain is not its exponent
    _case("sweep", _cfg(), 2, "config error",
          model={"kind": "unifilar", "next_state": [[0, 0], [1, 1]],
                 "emission": [[0.99, 0.01], [0.5, 0.5]], "init_state": 0},
          id="sweep-reducible-unifilar"),
    # a given init skips the stationary solve, which would refuse the chain first
    _case("exponent", _cfg(), 2, "config error",
          model={"kind": "markov", "init": [0.5, 0.5], "transition": [[1.0, 0.0], [0.3, 0.7]]},
          id="exponent-reducible-markov-with-init"),
    _case("verify", None, 2, "config error", extra=("--threads", "0"), id="verify-threads-0"),
    _case("verify", None, 2, "config error", extra=("--seed", "-1"), id="verify-seed-negative"),
    _case("simulate", _cfg(rho=[1e300]), 3, "numeric error", id="simulate-rho-1e300"),
    # the moment fits a float; (4 H_N)^rho does not
    _case("simulate", _cfg(rho=[500.0], n=[1]), 3, "numeric error", id="simulate-gap-bound"),
    # (2 H_N)^rho overflows too, and with it the gap bound
    _case("simulate", _cfg(rho=[700.0], n=[1]), 3, "numeric error", id="simulate-rho-700"),
    # 1,443 key bits: a key count past the float range is refused before 2^k is formed
    _case("simulate", _cfg(R=[50.0], n=[20]), 3, "numeric error", id="simulate-2^1443-keys"),
    _case("simulate", _cfg(R=[1e308]), 3, "numeric error", id="simulate-nR-overflows"),
    # a raised message cap admits 8 strings (n = 3) at k = 2 key bits, but the
    # knapsack's 5^8 states x 330 columns exceed 2^24
    _case("simulate", _cfg(n=[3], R=[0.4], caps={"brute_force_messages": 8}), 4,
          "cap exceeded", id="simulate-brute-force-8-messages"),
    # caps.materialize also bounds the search: 4 strings at k = 2 key bits are
    # 5^4 states x 35 columns, 21,875 > 1,000
    _case("simulate", _cfg(R=[0.6], caps={"materialize": 1000}), 4, "cap exceeded",
          id="simulate-brute-force-materialize-cap"),
    # without init the stationary law is solved before the chain is checked
    _case("exponent", _cfg(), 2, "config error",
          model={"kind": "markov", "transition": [[math.nan, 1.0], [1.0, 0.0]]},
          id="model-transition-nan-without-init"),
    # output paths are checked before any computation
    _case("bounds", _cfg(), 2, "config error", extra=("--out", "{tmp}"), id="out-is-a-directory"),
    _case("sweep", _cfg(out="."), 2, "config error", id="config-out-is-a-directory"),
    _case("verify", None, 2, "config error", extra=("--out", "{tmp}"), id="verify-out-directory"),
    _case("simulate", _cfg(), 2, "config error", extra=("--out", "{tmp}/missing/out.csv"),
          id="out-in-missing-directory"),
    _case("bounds", _cfg(), 2, "config error", extra=("--out", "{tmp}/model.json/out.csv"),
          id="out-under-a-file"),
    _case("exponent", TWO_RHOS, 2, "config error", extra=("--out", "{tmp}/missing/curve.csv"),
          id="exponent-rho-outs-in-missing-directory"),
    _case("exponent", TWO_RHOS, 2, "config error", extra=("--out", "{tmp}/taken.csv"),
          id="exponent-rho-out-is-a-directory"),
    # 1 and 1 + 1e-14 print alike, so both curves would go to curve_rho1.csv
    _case("exponent", _cfg(rho=[1.0, 1.0 + 1e-14]), 2, "config error",
          extra=("--out", "{tmp}/curve.csv"), id="exponent-rho-outs-collide"),
]


class TestFailureContract:
    @pytest.mark.parametrize("command, config, model, extra, code, prefix", FAILURES)
    def test_mapped_exit(self, tmp_path, capsys, command, config, model, extra, code, prefix):
        model_file = tmp_path / "model.json"
        model_file.write_bytes(model if isinstance(model, bytes) else json.dumps(model).encode())
        (tmp_path / "taken_rho1.csv").mkdir()
        argv = [command, *(arg.format(tmp=tmp_path) for arg in extra)]
        if config is DIRECTORY:
            argv += ["--config", str(tmp_path)]
        elif config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        # an exception escaping main fails the test here
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        # and leaves no output behind
        assert {p.name for p in tmp_path.iterdir()} <= {"config.json", "model.json",
                                                        "taken_rho1.csv"}

    @pytest.mark.parametrize("command, model", [
        ("bounds", IID), ("simulate", IID), ("sweep", IID),
        ("bounds", {"kind": "iid", "probs": [1.0]}),
    ], ids=["bounds", "simulate", "sweep", "one-letter"])
    def test_huge_n_exits_4_at_once(self, tmp_path, command, model):
        # n = 1e20 is an integer: 2^n strings, or a one-letter walk of n
        # letters, are refused from n and bit lengths before either is formed
        write_model(tmp_path, model)
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [0.3],
                                      "n": [1e20]})
        code = "\n".join([
            "import resource, sys",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
            "from guesswork.cli import main",
            f"sys.exit(main([{command!r}, '--config', {str(cfg)!r}]))",
        ])
        package_root = str(Path(guesswork.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("cap exceeded: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["exponent", "bounds", "sweep"])
    def test_extreme_rho_still_computes(self, tmp_path, iid_model, command):
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1e300], "R": [0.3],
                                      "n": [2]})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["bounds", "sweep"])
    def test_saturated_total_rate_writes_nothing_to_stderr(self, tmp_path, capsys, iid_model,
                                                           command):
        # nR = 2e308 is +inf, where the dual saturates: the row is written and
        # stderr stays empty, with no numpy overflow warning either
        cfg = write_config(tmp_path, {"model": "model.json", "rho": [1.0], "R": [1e308],
                                      "n": [2]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].startswith("2,1,1e+308,0.587786664902,")


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
    def test_bounds_byte_identical_across_threads(self, tmp_path, iid_model, command, fmt):
        cfg = write_config(tmp_path, {
            "model": "model.json", "rho": [0.5, 1.0], "R": [0.3, 0.5, 0.69], "n": [4, 6],
        })
        outputs = []
        for threads in (1, 8, 1):
            out = tmp_path / f"{command}_{threads}_{len(outputs)}.{fmt}"
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--format", fmt, "--threads", str(threads)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_verify_byte_identical(self, tmp_path):
        # repeat runs at one thread count are test_acceptance's criterion 9
        outputs = []
        for threads in (1, 8):
            out = tmp_path / f"verify_{threads}.csv"
            assert main(["verify", "--out", str(out), "--seed", "0",
                         "--threads", str(threads)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
