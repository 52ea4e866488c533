import json
import math

import numpy as np
import pytest

from penalab.cli import main
from penalab.report import ks_test
from penalab.samplers import RngStream


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestKsTest:
    def test_calibration_on_its_own_law(self):
        passes = 0
        for seed in range(40):
            u = np.sort(RngStream(seed).generator().random(2000))
            passes += ks_test(u, lambda z: np.clip(z, 0, 1), level=0.01).passed
        assert passes >= 37  # ~99% pass rate at level 0.01

    def test_power_against_shifted_law(self):
        u = np.sort(RngStream(1).generator().random(2000))
        v = ks_test(u, lambda z: np.clip(z - 0.1, 0, 1), level=0.01)
        assert not v.passed

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ks_test(np.array([3.0, 1.0] * 60), lambda z: z)
        with pytest.raises(ValueError):
            ks_test(np.sort(np.random.default_rng(0).random(50)), lambda z: z)


class TestSubcommands:
    def test_classify(self, capsys):
        code, out = run_cli(capsys, "classify", "--lambda", "1", "--mu", "1")
        assert code == 0
        assert json.loads(out) == {"region": "R2"}

    def test_density(self, capsys):
        code, out = run_cli(capsys, "density", "--law", "max", "--r", "1", "--z", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            math.sqrt(2 / math.pi) * math.exp(-0.5), abs=1e-12)

    def test_martingale_check_verdict(self, capsys):
        code, out = run_cli(capsys, "martingale-check", "--family", "phi:uniform:1",
                            "--u", "1", "--n", "20000", "--seed", "7")
        rec = json.loads(out)
        assert code == 0 and rec["pass"]
        assert rec["target"] == 1.0

    def test_limit_subcommand(self, capsys):
        code, out = run_cli(capsys, "limit", "--y", "1", "--event", "u=1,b=0,c=0.5",
                            "--n", "4000", "--seed", "3")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_deterministic_output(self, capsys):
        args = ("limit", "--y", "1", "--event", "u=1,b=0,c=0.5", "--n", "2000", "--seed", "11")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_converge_writes_csv(self, capsys, tmp_path):
        code, out = run_cli(capsys, "converge", "--y", "1", "--event", "u=1,b=0,c=0.5",
                            "--t", "32,64,128,256", "--out", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["fit"]["q_limit"] > 0
        assert json.loads(lines[1])["pass"]
        csvs = list(tmp_path.glob("*.csv"))
        assert csvs and csvs[0].read_text().startswith("t,")

    def test_expansion_subcommand(self, capsys):
        code, out = run_cli(capsys, "expansion", "--mode", "poly")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_bessel_subcommand(self, capsys):
        code, out = run_cli(capsys, "bessel", "--lambda", "-1", "--mu", "-1",
                            "--t", "128", "--n", "8000", "--seed", "5")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        # one verdict against the exact finite-t law, one against the limit, per b
        assert [r["name"] for r in recs] == ["bessel[t=128.0,b=0.8]", "bessel-limit[t=128.0,b=0.8]",
                                             "bessel[t=128.0,b=1.6]", "bessel-limit[t=128.0,b=1.6]"]
        assert all(r["pass"] for r in recs)

    def test_verify_subset(self, capsys):
        code, out = run_cli(capsys, "verify", "--only", "5,8", "--seed", "1")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 4 and all(r["pass"] for r in recs)

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=2000\nseed=3\n")
        args = ("limit", "--y", "1", "--event", "u=1,b=0,c=0.5")
        code, out = run_cli(capsys, "--config", str(cfg), *args)
        _, flags = run_cli(capsys, *args, "--n", "2000", "--seed", "3")
        _, default = run_cli(capsys, *args)
        assert code == 0
        assert out == flags != default

    def test_config_value_is_type_checked(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "limit", "--y", "1", "--event", "u=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("limit", "--phi", "uniform", "--event", "u=1"),
        ("limit", "--event", "u=1"),
        ("limit", "--y", "1", "--event", "u=x"),
        ("martingale-check", "--family", "explinear:1"),
        ("expansion", "--mode", "kennedy", "--lam", "-2", "--psi", "exp:1"),
    ])
    def test_malformed_input_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_env_seed(self, capsys, monkeypatch):
        # the parser is rebuilt on every call, so the env default is picked up
        monkeypatch.setenv("PENALAB_SEED", "777")
        args = ("limit", "--y", "1", "--event", "u=1,b=0,c=0.5", "--n", "2000")
        _, from_env = run_cli(capsys, *args)
        _, seed_777 = run_cli(capsys, *args, "--seed", "777")
        _, seed_778 = run_cli(capsys, *args, "--seed", "778")
        assert from_env == seed_777 != seed_778

    def test_limit_dumps_paths(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "limit", "--y", "1", "--event", "u=1,b=0,c=0.5", "--n", "2000",
                          "--dump-paths", "3", "--step", "0.01", "--out", str(tmp_path))
        assert code == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 3
        for path in csvs:
            lines = path.read_text().splitlines()
            assert lines[0] == "t,x,s" and len(lines) == 102
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            assert rows[0, 1] == 0.0
            assert np.all(rows[:, 2] <= 1.0)

    def test_verify_rejects_suite_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense", "--only", "5"])

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_knob=3\n")
        with pytest.raises(SystemExit):
            main(["--config", str(cfg), "classify", "--lambda", "0", "--mu", "0"])
        assert "bogus_knob" in capsys.readouterr().err

    def test_exit_code_reflects_failing_verdict(self, capsys):
        # at t = 2 the penalized Bessel law is still far from its limit, so
        # the check legitimately fails and the exit status must say so
        code, out = run_cli(capsys, "bessel", "--lambda", "-1", "--mu", "-1",
                            "--t", "2", "--n", "60000", "--seed", "5")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert any(not r["pass"] for r in recs)
        assert code == 1
