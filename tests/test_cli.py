import hashlib
import os
import re

import numpy as np
import pytest

from eastlab import lattice
from eastlab.cli import (
    KINDS,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)
from eastlab.estimators import estimate_persistence
from eastlab.lattice import ModelParams, initial_rows


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PERSIST_CFG = """
# minimal persistence run
kind = persistence
d = 1
p = 0.5
window_lower = 1
window_upper = 3
measure = bernoulli 0.5
site = 2
times = 0.5 1.0 2.0
n = 200
seed = 7
"""

RELAX_CFG = """
kind = relaxation
d = 1
window_lower = 0
window_upper = 2
measure = bernoulli 0.5
site = 1
times = 1 2
"""

LEMMA_CFG = """
kind = verify-lemma
d = 2
window_lower = -4 -4
window_upper = 0 0
measure = delta-zeros 0 0
site = 0 0
"""


class TestParse:
    def test_missing_kind(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("d = 1\np = 0.5\n")
        assert exc.value.field_name == "kind"

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kind = frobnicate\n")
        msg = str(exc.value)
        assert "frobnicate" in msg
        for k in ("persistence", "relaxation", "gap", "constants", "verify-lemma"):
            assert k in msg

    @pytest.mark.parametrize(
        "text,key",
        [
            ("kind = gap\np = 0.5\nN = 12 21\n", "N"),
            ("kind = gap\np = 0.5\nN = 0 3\n", "N"),
            ("kind = constants\nlambda_N = 21\n", "lambda_N"),
            ("kind = constants\nlambda_N = 0\n", "lambda_N"),
        ],
    )
    def test_chain_length_outside_cap_rejected(self, text, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == key

    def test_chain_length_outside_cap_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "kind = gap\np = 0.5\nN = 99\n")
        assert main([path, "--out", str(out)]) == 1
        assert not out.exists()

    def test_p_out_of_range(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kind = gap\np = 1.5\nN = 1 2\n")
        assert exc.value.field_name == "p"

    @pytest.mark.parametrize("line,key", [("d = 1.5", "d"), ("d = two", "d"), ("p = x", "p"), ("p =", "p")])
    def test_unparsable_d_or_p_named_alone(self, line, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"kind = constants\n{line}\n")
        assert exc.value.field_name == key
        assert str(exc.value).startswith(f"config field '{key}': ")

    def test_window_dim_mismatch(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = simulate\nd = 2\nwindow_lower = 0\nwindow_upper = 3\n"
                "measure = bernoulli 0.5\n"
            )
        assert exc.value.field_name == "window"

    def test_site_outside_window(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = persistence\nd = 1\nwindow_lower = 0\nwindow_upper = 2\n"
                "measure = bernoulli 0.5\nsite = 9\ntimes = 1.0\n"
            )
        assert exc.value.field_name == "site"

    def test_missing_required_field(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kind = persistence\nd = 1\ntimes = 1.0\n")
        assert exc.value.field_name in ("window", "measure", "site")

    def test_empty_times(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = relaxation\nd = 1\nwindow_lower = 0\nwindow_upper = 2\n"
                "measure = bernoulli 0.5\nsite = 1\n"
            )
        assert exc.value.field_name == "times"

    def test_nonpositive_counts(self):
        for text, key in (
            (PERSIST_CFG.replace("n = 200", "n = 0"), "n"),
            (RELAX_CFG + "n_outer = 0\n", "n_outer"),
            (RELAX_CFG + "n_inner = -3\n", "n_inner"),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert exc.value.field_name == key
            assert "given twice" not in str(exc.value)

    @pytest.mark.parametrize("gamma", ["0", "-1"])
    def test_nonpositive_gamma_rejected(self, tmp_path, capsys, gamma):
        text = RELAX_CFG + f"gamma = {gamma}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == "gamma"
        assert main([write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
        assert "'gamma'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_measure(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
                "measure = gaussian 0.5\n"
            )
        assert exc.value.field_name == "measure"

    @pytest.mark.parametrize(
        "line,key",
        [
            ("measure =", "measure"),
            ("measure = bernoulli x", "measure"),
            ("measure = delta-zeros 0 x", "measure"),
            ("measure = delta-zeros 5 5", "measure"),  # outside the 0..1 window
            ("site = 1 x", "site"),
        ],
    )
    def test_malformed_measure_or_site_names_key(self, tmp_path, capsys, line, key):
        # the line takes the place of the well-formed one
        lines = {
            "measure": "measure = delta-zeros 0 0",
            "site": "site = 1 1",
        }
        lines[key] = line
        text = (
            "kind = relaxation\nd = 2\nwindow_lower = 0 0\nwindow_upper = 1 1\n"
            + "\n".join(lines.values()) + "\ntimes = 1\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == key
        assert main([write_config(tmp_path, text)]) == 1
        assert f"validation error: config field '{key}'" in capsys.readouterr().err

    def test_key_given_twice_names_both_lines(self, tmp_path, capsys):
        text = "kind = gap\np = 0.5\nN = 3\n\nN = 4 5\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == "N"
        assert "given twice, on lines 3 and 5" in str(exc.value)
        out = tmp_path / "out"
        assert main([write_config(tmp_path, text), "--out", str(out)]) == 1
        assert "validation error: config field 'N': given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_zeros_measure(self):
        cfg = parse_config(
            "kind = simulate\nd = 2\nwindow_lower = -1 -1\nwindow_upper = 0 0\n"
            "measure = delta-zeros 0 0\nexterior = 0\nhorizon = 1\n"
        )
        assert cfg.measure.config.spin_at((0, 0)) == 0
        assert cfg.measure.config.spin_at((-1, 0)) == 1
        assert cfg.measure.config.exterior == 0

    def test_unknown_key_rejected(self):
        # a typo must not run silently with the default
        with pytest.raises(ConfigError) as exc:
            parse_config(PERSIST_CFG + "n_outter = 7\n")
        assert exc.value.field_name == "n_outter"

    def test_key_of_other_kind_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kind = gap\np = 0.5\nN = 1 2\nhorizon = 3\n")
        assert exc.value.field_name == "horizon"

    def test_threads_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(PERSIST_CFG + "threads = 2\n")
        assert exc.value.field_name == "threads"

    @pytest.mark.parametrize("horizon", ["", "horizon = 0\n", "horizon = -1\n"])
    def test_simulate_requires_positive_horizon(self, horizon):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
                "measure = bernoulli 0.5\n" + horizon
            )
        assert exc.value.field_name == "horizon"

    @pytest.mark.parametrize(
        "text",
        [
            "kind = persistence\nd = 2\np = 0.5\nwindow_lower = -10 -10\nwindow_upper = 1 1\n"
            "measure = bernoulli 0.5\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8 9 10\nn = 100\n",
            "kind = relaxation\nd = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 1 1\n"
            "exterior = 1\nmeasure = delta-zeros 0 0\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8\n"
            "n_outer = 6\nn_inner = 500\n",
            "kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\nwindow_lower = -4 -4\n"
            "window_upper = 0 0\nexterior = 0\nmeasure = delta-zeros 0 0\nsite = 0 0\nn = 300\n",
            "kind = gap\np = 0.5\nN = 11 12 13\n",
        ],
    )
    def test_every_key_read_by_its_kind_parses(self, text):
        cfg = parse_config(text + "seed = 1\nout = x\n")
        assert set(cfg.raw) <= KINDS[cfg.kind].keys | {"kind", "seed", "out"}

    @pytest.mark.parametrize(
        "text,key",
        [
            (PERSIST_CFG.replace("times = 0.5 1.0 2.0", "times = 1 -1 2"), "times"),
            (LEMMA_CFG + "t = -0.5\n", "t"),
            (LEMMA_CFG + "alpha = -0.1\n", "alpha"),
        ],
        ids=["times", "t", "alpha"],
    )
    def test_negative_time_or_alpha_rejected(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == key
        assert "given twice" not in str(exc.value)
        assert main([write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            (PERSIST_CFG.replace("times = 0.5 1.0 2.0", "times = 1 nan 2"), "times"),
            (LEMMA_CFG + "t = nan\n", "t"),
            (LEMMA_CFG + "alpha = inf\n", "alpha"),
            ("kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
             "measure = bernoulli 0.5\nhorizon = inf\n", "horizon"),
            ("kind = relaxation\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
             "measure = bernoulli 0.5\nsite = 1\ntimes = 1 2\ngamma = nan\n", "gamma"),
            ("kind = constants\ndelta = -inf\n", "delta"),
            ("kind = constants\nc = nan\n", "c"),
        ],
        ids=["times", "t", "alpha", "horizon", "gamma", "delta", "c"],
    )
    def test_non_finite_float_rejected(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field_name == key
        assert "given twice" not in str(exc.value)
        assert main([write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_comments_and_echo(self):
        cfg = parse_config(PERSIST_CFG)
        assert cfg.kind == "persistence"
        assert cfg.seed == 7
        assert cfg.raw["n"] == "200"
        assert "minimal" not in str(cfg.raw)


class TestRuns:
    def test_persistence_outputs(self, tmp_path):
        cfg = parse_config(PERSIST_CFG)
        cfg.out_dir = str(tmp_path / "out")
        manifest = run_experiment(cfg)
        assert manifest.status == "ok"
        for name in ("persistence.csv", "persistence_fit.txt", "manifest.txt"):
            assert os.path.exists(os.path.join(cfg.out_dir, name))
        assert set(manifest.checksums) == {"persistence.csv", "persistence_fit.txt"}
        text = (tmp_path / "out" / "manifest.txt").read_text()
        assert "config.seed = 7" in text
        assert "status = ok" in text

    def test_fit_needs_three_distinct_times(self, tmp_path):
        cfg = parse_config(PERSIST_CFG.replace("times = 0.5 1.0 2.0", "times = 1 1 1"))
        cfg.out_dir = str(tmp_path)
        assert run_experiment(cfg).status == "ok"
        assert (tmp_path / "persistence_fit.txt").read_text() == "fit_failed=too_few_points\n"

    def test_double_run_identical_checksums(self, tmp_path):
        cfg1 = parse_config(PERSIST_CFG)
        cfg1.out_dir = str(tmp_path / "a")
        cfg2 = parse_config(PERSIST_CFG)
        cfg2.out_dir = str(tmp_path / "b")
        m1 = run_experiment(cfg1)
        m2 = run_experiment(cfg2)
        assert m1.checksums == m2.checksums

    def test_gap_run(self, tmp_path):
        cfg = parse_config("kind = gap\np = 0.5\nN = 1 2 3\n")
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert lines[0] == "N,gap"
        assert lines[1].startswith("1,1")
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_constants_run(self, tmp_path):
        cfg = parse_config("kind = constants\np = 0.5\nd = 2\nlambda_N = 4\n")
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        text = (tmp_path / "constants.txt").read_text()
        assert "c3_prime" in text
        assert "lambda_pp_cauchy_increment" in text

    def test_constants_defaults_d_and_p(self, tmp_path):
        cfg = parse_config("kind = constants\nlambda_N = 4\n")
        assert cfg.params == ModelParams(1, 0.5)
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "constants.txt").read_text().splitlines()
        assert "p = 0.5" in lines and "d = 1" in lines

    def test_verify_lemma_run(self, tmp_path):
        cfg = parse_config(
            "kind = verify-lemma\nd = 2\np = 0.5\n"
            "window_lower = -2 -2\nwindow_upper = 0 0\n"
            "measure = delta-zeros 0 0\nexterior = 0\n"
            "site = 0 0\nt = 8.0\nalpha = 0.08\nn = 20\nseed = 3\n"
        )
        cfg.out_dir = str(tmp_path)
        manifest = run_experiment(cfg)
        assert manifest.status == "ok"
        lines = (tmp_path / "lemma.csv").read_text().splitlines()
        assert lines[0] == "seed,t,alpha,hypothesis_held,found,path_length,applicable"
        assert len(lines) == 21
        # runs stop at t/2, the end of the interval the check reads
        text = (tmp_path / "manifest.txt").read_text()
        entries = dict(ln.split(" = ", 1) for ln in text.splitlines())
        assert float(entries["lemma.horizon"]) == 4.0
        rings, legal = int(entries["lemma.rings"]), int(entries["lemma.legal_rings"])
        assert rings > 0 and 0 <= legal <= rings

    def test_verify_lemma_counts_inapplicable_replicas(self, tmp_path):
        # under a product measure the start site is often 1 initially; such
        # replicas do not meet the lemma's premise and are reported, not fatal
        path = write_config(
            tmp_path,
            "kind = verify-lemma\nd = 2\np = 0.5\n"
            "window_lower = -2 -2\nwindow_upper = 0 0\n"
            "measure = bernoulli 0.5\nsite = 0 0\nt = 8.0\nalpha = 0.08\nn = 20\nseed = 3\n",
        )
        out = tmp_path / "out"
        assert main([path, "--out", str(out)]) == 0
        lines = (out / "lemma.csv").read_text().splitlines()
        assert lines[0].split(",")[:6] == "seed,t,alpha,hypothesis_held,found,path_length".split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 20 and all(len(r) == 7 for r in rows)
        skipped = [r for r in rows if r[6] == "0"]
        assert 0 < len(skipped) < 20
        assert all(r[3:6] == ["0", "0", "0"] for r in skipped)
        manifest = (out / "manifest.txt").read_text()
        assert f"lemma.not_applicable = {len(skipped)}" in manifest
        assert "status = ok" in manifest

    def test_bernoulli_honours_exterior(self):
        # the corner's outside neighbours are the exterior: frozen at 0 they
        # leave it unconstrained, frozen at 1 they block it for good
        values, spins = [], []
        for exterior in (0, 1):
            cfg = parse_config(
                "kind = persistence\nd = 2\np = 0.5\nwindow_lower = -3 -3\nwindow_upper = 0 0\n"
                f"exterior = {exterior}\nmeasure = bernoulli 0.5\nsite = -3 -3\n"
                "times = 1 2 3\nn = 200\nseed = 5\n"
            )
            spins.append(initial_rows(cfg.measure, cfg.window, 0, range(1))[0].spin)
            values.append(estimate_persistence(cfg.params, cfg.measure, cfg.site, cfg.times,
                                               cfg.n, cfg.window, cfg.seed).values)
        assert spins == [0, 1]
        assert values[1] == (1.0, 1.0, 1.0)
        assert values[0] != values[1]

    def test_manifest_records_stream_version(self, tmp_path):
        cfg = parse_config(PERSIST_CFG)
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        assert "stream_version = 3" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_manifest_written_on_runtime_error(self, tmp_path):
        # horizon above the simulator cap triggers a runtime failure after
        # validation has passed; the manifest must still appear
        cfg = parse_config(
            "kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
            "measure = bernoulli 0.5\nhorizon = 1e12\n"
        )
        cfg.out_dir = str(tmp_path)
        with pytest.raises(Exception):
            run_experiment(cfg)
        text = (tmp_path / "manifest.txt").read_text()
        assert "status = error" in text

    def test_manifest_error_status_stays_one_line(self, tmp_path, monkeypatch):
        def fail(config, out):
            raise ValueError("first\nsecond")

        monkeypatch.setitem(KINDS, "gap", KINDS["gap"]._replace(run=fail))
        cfg = parse_config("kind = gap\nN = 3\n")
        cfg.out_dir = str(tmp_path)
        with pytest.raises(ValueError):
            run_experiment(cfg)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert all(re.fullmatch(r"[\w.]+ = .*", ln) for ln in lines), lines
        assert "status = error: first\\nsecond" in lines


# Sampled output bytes at seed 7, keyed by case: (output file, config, sha256).  They may change only together with
# STREAM_VERSION: a change of random streams or of output formatting has to
# bump it and record the new digests here.
GOLDEN = {
    "persistence.csv": (
        "persistence.csv",
        "kind = persistence\nd = 2\np = 0.5\nwindow_lower = -3 -3\nwindow_upper = 1 1\n"
        "measure = bernoulli 0.5\nsite = 1 1\ntimes = 1 2 3\nn = 60\n",
        "dd682244721c887b4916d8145eaa3747382e85bea1e1101f872098c526942b22",
    ),
    "relaxation.csv": (
        "relaxation.csv",
        "kind = relaxation\nd = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 1 1\n"
        "measure = delta-zeros 0 0\nsite = 1 1\ntimes = 1 2 3\nn_outer = 3\nn_inner = 40\n",
        "c4f834b6feea184e54f6a3646ab70de74913868f029ef81ddbf3b65180621f12",
    ),
    "lemma.csv": (
        "lemma.csv",
        "kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\nwindow_lower = -4 -4\n"
        "window_upper = 0 0\nexterior = 0\nmeasure = bernoulli 0.4\nsite = 0 0\nn = 40\n",
        "c584043e97f319d3992801698a72de9a3186badd41f62cc4d32056b323e81d05",
    ),
    "events.csv": (
        "events.csv",
        "kind = simulate\nd = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 3 3\n"
        "measure = bernoulli 0.5\nhorizon = 5\n",
        "71593f4a64b4b1cd7ea6db84d9f18f664a835a333cb9d51e80c9fdcba95c1741",
    ),
    "lemma.csv-d3": (
        "lemma.csv",
        "kind = verify-lemma\nd = 3\np = 0.5\nalpha = 0.03\nt = 12\nwindow_lower = -3 -3 -3\n"
        "window_upper = 0 0 0\nexterior = 0\nmeasure = delta-zeros 0 0 0\nsite = 0 0 0\nn = 40\n",
        "0f69856d1abcab45704f0dd6ff79f407c934decf2aead5a3f34d3173b5883f4b",
    ),
    # the lemma-2d benchmark config: its 300 replicas come in two chunks of
    # different sizes at horizon t and at t/2, so this pins the chunking too
    "lemma.csv-2d-delta": (
        "lemma.csv",
        "kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\nwindow_lower = -4 -4\n"
        "window_upper = 0 0\nexterior = 0\nmeasure = delta-zeros 0 0\nsite = 0 0\nn = 300\n",
        "772492c3af7cd645147cc336fd02cf8eb98f464bcf3ed7920476e072aef7a3df",
    ),
    # the persist-2d-wide benchmark config: its runs resume through every
    # stage end, so this pins the staging too
    "persistence.csv-2d-wide": (
        "persistence.csv",
        "kind = persistence\nd = 2\np = 0.5\nwindow_lower = -10 -10\nwindow_upper = 1 1\n"
        "measure = bernoulli 0.5\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8 9 10\nn = 100\n",
        "bda46048ac1940411e4e21716c4829455385bfcfb72123e3b483fa3cdd578ff6",
    ),
    # the one kind that reads occupation_time, which sums x's own rings
    "fk_probe.csv": (
        "fk_probe.csv",
        "kind = fk-probe\nd = 2\np = 0.5\nwindow_lower = -4 -4\nwindow_upper = 0 0\n"
        "measure = bernoulli 0.5\nsite = -2 -1\ndelta = 0.5\nt = 6\nn = 400\n",
        "955d5e72b32e1ae5b9f50f1e457e9fed7eda9010ec0cbebd8e0f8a4b110de404",
    ),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_bytes_pinned(self, tmp_path, name):
        output, text, digest = GOLDEN[name]
        cfg = parse_config(text + "seed = 7\n")
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest


def count_configurations(monkeypatch):
    """Count Configuration constructions from here on."""
    calls = []
    check = lattice.Configuration.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(lattice.Configuration, "__post_init__", counted)
    return calls


def count_numpy_generators(monkeypatch):
    """Count numpy Generator and Philox constructions from here on, by class."""
    calls = {"Generator": 0, "Philox": 0}
    for name in calls:
        def counted(*args, _name=name, _cls=getattr(np.random, name), **kwargs):
            calls[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    return calls


class TestNoConfigurationPerDraw:
    def test_persistence_builds_no_numpy_generator(self, monkeypatch):
        calls = count_numpy_generators(monkeypatch)
        counts = []
        for n in (20, 200):
            cfg = parse_config(PERSIST_CFG.replace("n = 200", f"n = {n}"))
            calls.update(Generator=0, Philox=0)
            estimate_persistence(cfg.params, cfg.measure, cfg.site, cfg.times, cfg.n,
                                 cfg.window, cfg.seed)
            counts.append(dict(calls))
        assert counts == [{"Generator": 0, "Philox": 0}] * 2

    def test_persistence(self, monkeypatch):
        calls = count_configurations(monkeypatch)
        counts = []
        for n in (20, 200):
            cfg = parse_config(PERSIST_CFG.replace("n = 200", f"n = {n}"))
            del calls[:]
            estimate_persistence(cfg.params, cfg.measure, cfg.site, cfg.times, cfg.n,
                                 cfg.window, cfg.seed)
            counts.append(len(calls))
        assert counts == [0, 0]

    def test_delta_verify_lemma(self, tmp_path, monkeypatch):
        calls = count_configurations(monkeypatch)
        counts = []
        for n in (30, 300):
            cfg = parse_config(
                "kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\n"
                "window_lower = -4 -4\nwindow_upper = 0 0\nexterior = 0\n"
                f"measure = delta-zeros 0 0\nsite = 0 0\nn = {n}\n"
            )
            cfg.out_dir = str(tmp_path / str(n))
            del calls[:]
            assert run_experiment(cfg).status == "ok"
            counts.append(len(calls))
        assert counts[0] == counts[1] == 0


class TestMain:
    def test_exit_zero(self, tmp_path):
        path = write_config(tmp_path, PERSIST_CFG)
        out = str(tmp_path / "out")
        assert main([path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "persistence.csv"))

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, PERSIST_CFG)
        out = str(tmp_path / "out")
        assert main([path, "--out", out, "--seed", "99"]) == 0
        assert "config.seed = 99" in (tmp_path / "out" / "manifest.txt").read_text()

    def test_exit_one_on_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "kind = nope\n")
        assert main([path]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_threads_flag_removed(self, tmp_path):
        path = write_config(tmp_path, PERSIST_CFG)
        with pytest.raises(SystemExit):
            main([path, "--out", str(tmp_path / "out"), "--threads", "2"])

    def test_exit_one_on_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_exit_two_on_runtime_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
            "measure = bernoulli 0.5\nhorizon = 1e12\n",
        )
        assert main([path, "--out", str(tmp_path / "out")]) == 2
        assert "runtime error" in capsys.readouterr().err
