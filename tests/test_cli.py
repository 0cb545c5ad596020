import os

import pytest

from eastlab.cli import (
    KINDS,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)


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

    def test_p_out_of_range(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kind = gap\np = 1.5\nN = 1 2\n")
        assert exc.value.field_name == "p"

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
        with pytest.raises(ConfigError):
            parse_config(PERSIST_CFG + "n = 0\n")

    def test_bad_measure(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "kind = simulate\nd = 1\nwindow_lower = 0\nwindow_upper = 1\n"
                "measure = gaussian 0.5\n"
            )
        assert exc.value.field_name == "measure"

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

    def test_manifest_records_stream_version(self, tmp_path):
        cfg = parse_config(PERSIST_CFG)
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        assert "stream_version = 2" in (tmp_path / "manifest.txt").read_text().splitlines()

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
