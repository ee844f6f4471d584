"""End-to-end tests of the command line interface.

Each test drives main(argv) directly and parses the JSON written to
stdout; determinism is asserted byte-for-byte across repeated runs.
"""

import json
import time

import pytest

from p1torsion.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHeight:
    def test_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "height")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["command"] == "height"
        assert data["value"] == "1/2"
        assert data["log_t_residue"] == "0"
        assert data["gamma_residue"] == "0"


class TestTorsion:
    def test_series_output(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "--ell", "0", "--series",
                               "--order", "8")
        assert code == 0
        data = json.loads(out)
        series = data["series"]
        assert series["var"] == "t"
        degrees = [entry["deg"] for entry in series["coeffs"]]
        assert 0 in degrees
        assert all(d % 2 == 0 and d >= 0 for d in degrees)
        # the constant term carries a zeta'(-1) contribution
        const = next(e for e in series["coeffs"] if e["deg"] == 0)
        assert "ZETA_PRIME(-1)" in json.dumps(const["expr"])

    def test_value_output(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "--ell", "2",
                               "--t", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["t"] == 0.5
        assert float(data["value"]) == pytest.approx(-1.010211, abs=1e-5)

    def test_bad_t_is_numeric_error(self, capsys):
        code, out, err = run_cli(capsys, "torsion", "--ell", "0",
                                 "--t", "9.0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_precision_flag_position_insensitive(self, capsys):
        _, before, _ = run_cli(capsys, "--precision", "25", "torsion",
                               "--ell", "0", "--t", "1.0")
        _, after, _ = run_cli(capsys, "torsion", "--ell", "0", "--t", "1.0",
                              "--precision", "25")
        assert before == after


class TestGrrCheck:
    def test_zero_residual(self, capsys):
        code, out, _ = run_cli(capsys, "grr-check", "--ell", "1",
                               "--degree", "8")
        assert code == 0
        assert json.loads(out)["residual"] == "0"

    def test_odd_degree_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "grr-check", "--ell", "1",
                               "--degree", "7")
        assert code == 2
        assert "usage error" in err


class TestScurrent:
    def test_value_and_series_agree(self, capsys):
        code, out, _ = run_cli(capsys, "scurrent", "--profile", "r^2",
                               "--t", "1.25")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == data["series_value"]

    def test_symbolic_mode(self, capsys):
        code, out, _ = run_cli(capsys, "scurrent", "--profile", "r^2",
                               "--symbolic")
        assert code == 0
        data = json.loads(out)
        assert data["series"]["min_degree"] == -2

    def test_missing_t_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "scurrent", "--profile", "r^2")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("profile", ["x^2", "r^2*3"])
    def test_unparseable_profile_usage_error(self, capsys, profile):
        code, out, err = run_cli(capsys, "scurrent", "--profile", profile,
                                 "--t", "1.0")
        assert code == 2
        assert out == ""
        assert "usage error" in err


class TestTwoParam:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "two-param", "--ell", "1",
                               "--s", "1.0", "--t", "0.4",
                               "--precision", "25")
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "two-param"
        assert float(data["value"]) == pytest.approx(
            float(data["value"]))  # parses as a finite number

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "two-param", "--ell", "0",
                               "--s", "4.0", "--t", "3.0")
        assert code == 1
        assert "error" in err

    def test_unconverged_series_is_numeric_error(self, capsys):
        # |t|/s = 0.8 at s = 0.05, t = 0.04: 0.8^400 is above the 10^-55
        # target, so R~0 refuses before it sums a single Lerch term
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "two-param", "--ell", "0",
                                 "--s", "0.05", "--t", "0.04")
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        assert "cannot reach 50 digits in 400 terms" in err


class TestTorsionForm:
    def test_class_output(self, capsys):
        code, out, _ = run_cli(capsys, "torsion-form", "--ell", "-1",
                               "--degree", "4")
        assert code == 0
        data = json.loads(out)
        assert all(key.startswith("c1^") for key in data["class"])


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["height", "--bogus"])
        assert exc.value.code == 2

    def test_low_precision_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["height", "--precision", "5"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "torsion", "--ell", "3",
                                   "--series", "--order", "10")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]


class TestEnvironment:
    def test_precision_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("P1TORSION_PRECISION", "30")
        code, out, _ = run_cli(capsys, "torsion", "--ell", "0",
                               "--t", "1.0")
        assert code == 0
        assert json.loads(out)["precision"] == 30

    def test_invalid_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("P1TORSION_PRECISION", "abc")
        with pytest.raises(SystemExit):
            main(["height"])
