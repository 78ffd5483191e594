"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import subprocess
import sys

import pytest

from onramp.cli import main

from conftest import DEMO_VALUES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            values[key] = value
    return values


def write_config(tmp_path, values, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


def test_analyze_demo_config(capsys, demo_config_file):
    code, out, _ = run_cli(capsys, "analyze", "--config", str(demo_config_file))
    assert code == 0
    values = parse_kv(out)
    assert values["meaningful_set"] == "true"
    assert float(values["phi"]) == pytest.approx(0.5401568346061195, abs=1e-9)
    assert float(values["delta"]) == pytest.approx(0.6047119573573881, abs=1e-9)
    assert float(values["pi"]) == pytest.approx(-1.3903761547080171, abs=1e-9)
    assert float(values["steadfast_slope"]) == pytest.approx(10.281, abs=1e-9)


def test_analyze_with_interval_reports_regime(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "analyze", "--config", str(demo_config_file),
        "--e-lower", "0.5", "--e-upper", "2.0",
    )
    assert code == 0
    assert parse_kv(out)["regime"] == "endpoint_symmetric"


def test_analyze_outside_set_exits_two(capsys, tmp_path):
    values = dict(DEMO_VALUES, n0=1.0, gamma=0.0)
    code, out, _ = run_cli(capsys, "analyze", "--config", write_config(tmp_path, values))
    assert code == 2
    printed = parse_kv(out)
    assert printed["meaningful_set"] == "false"
    assert "exclusion_reason" in printed


def test_analyze_partial_interval_exits_one(capsys, demo_config_file):
    code, _, err = run_cli(
        capsys, "analyze", "--config", str(demo_config_file), "--e-lower", "0.5"
    )
    assert code == 1
    assert "together" in err


def test_analyze_missing_key_exits_one(capsys, tmp_path):
    values = dict(DEMO_VALUES)
    del values["mu"]
    code, _, err = run_cli(capsys, "analyze", "--config", write_config(tmp_path, values))
    assert code == 1
    assert "mu" in err


def test_analyze_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 1
    assert "JSON" in err or "json" in err


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--config", str(tmp_path / "absent.json"))
    assert code == 1


def test_unknown_flag_exits_one(capsys, demo_config_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--config", str(demo_config_file), "--bogus"])
    assert excinfo.value.code == 1


def test_equilibrium_full_altruism(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "1.0", "--beta", "1.0",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["case"] == "case_d"
    assert float(values["x_hat_b"]) == pytest.approx(0.6047119573573881, abs=1e-9)
    assert float(values["j_soc"]) == pytest.approx(8.563714806200348, abs=1e-9)
    assert values["wardrop_pass"] == "true"


def test_equilibrium_scarce_altruists(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "0.3", "--beta", "0.5",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["case"] == "case_b"
    assert float(values["x_hat_b"]) == pytest.approx(0.5401568346061195, abs=1e-9)


def test_equilibrium_alpha_out_of_range_exits_one(capsys, demo_config_file):
    code, _, err = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file),
        "--alpha", "1.5", "--beta", "1.0",
    )
    assert code == 1
    assert "alpha" in err


def test_equilibrium_outside_set_exits_two(capsys, tmp_path):
    values = dict(DEMO_VALUES, n0=1.0, gamma=0.0)
    code, _, err = run_cli(
        capsys, "equilibrium", "--config", write_config(tmp_path, values),
        "--alpha", "0.5", "--beta", "1.0",
    )
    assert code == 2


def test_sweep_alpha_deterministic_and_schema(capsys, demo_config_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out_path in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "sweep-alpha", "--config", str(demo_config_file),
            "--step", "0.01", "--out", str(out_path),
        )
        assert code == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    lines = bytes_a.decode().split("\n")
    assert lines[0] == "beta,alpha,x_hat_b,case,j_soc"
    assert len([line for line in lines[1:] if line]) == 303
    assert b"\r" not in bytes_a


def test_sweep_alpha_stdout_and_custom_betas(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "sweep-alpha", "--config", str(demo_config_file),
        "--beta", "1.0", "--step", "0.1",
    )
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert len(lines) == 1 + 11
    assert all(line.split(",")[0] == "1" for line in lines[1:])


def test_sweep_beta_e_schema_and_rows(capsys, demo_config_file, tmp_path):
    out_path = tmp_path / "levels.csv"
    code, _, _ = run_cli(
        capsys, "sweep-beta-e", "--config", str(demo_config_file),
        "--alpha", "0.63", "--alpha", "0.8",
        "--beta-e-max", "4.0", "--step", "0.01", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().split("\n")
    assert lines[0] == "alpha,beta_e,x_hat_b,case,j_soc"
    assert len([line for line in lines[1:] if line]) == 2 * 401


def test_poa_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "1.0", "--e-lower", "0.5", "--e-upper", "2.0", "--verify",
    )
    assert code == 0
    values = parse_kv(out)
    assert float(values["poa"]) >= 1.0
    assert float(values["beta_star"]) == pytest.approx(1.0, abs=1e-12)
    assert values["branch"] == "endpoint_symmetric"
    assert float(values["grid_beta_star_gap"]) <= 1e-3
    assert values["verify_pass"] == "true"
    assert "worst_case[0]" in out


def test_poa_invalid_interval_exits_one(capsys, demo_config_file):
    code, _, err = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "1.0", "--e-lower", "2.0", "--e-upper", "0.5",
    )
    assert code == 1


def test_optimal_beta_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "optimal-beta", "--config", str(demo_config_file),
        "--e-lower", "0.5", "--e-upper", "2.0", "--verify",
    )
    assert code == 0
    values = parse_kv(out)
    assert float(values["beta_star"]) == pytest.approx(1.0, abs=1e-12)
    assert values["branch"] == "endpoint_symmetric"
    assert float(values["poa_at_beta_star"]) >= 1.0
    assert float(values["grid_beta_star_gap"]) <= 1e-3
    assert values["verify_pass"] == "true"


def test_verify_command(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(demo_config_file),
        "--alpha", "0.8", "--beta", "1.0",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["verify_pass"] == "true"
    assert float(values["brute_force_gap"]) <= 2e-3
    assert float(values["dynamics_gap"]) <= 1e-9
    assert values["dynamics_converged"] == "true"


def test_console_entrypoint_subprocess(demo_config_file):
    result = subprocess.run(
        [sys.executable, "-m", "onramp", "analyze", "--config", str(demo_config_file)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "phi = 0.540156834606" in result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["poa", "--beta", "nan", "--e-lower", "0.5", "--e-upper", "2"],
        ["equilibrium", "--alpha", "0.8", "--beta", "nan"],
    ],
)
def test_nan_beta_exits_one_naming_beta(capsys, demo_config_file, argv):
    code, out, err = run_cli(capsys, argv[0], "--config", str(demo_config_file), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "onramp: error: beta must be finite, got nan\n"


def test_equilibrium_with_a_nan_certificate_fails_wardrop(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--config", str(demo_config_file), "--alpha", "0.8",
        "--beta", "1e308",
    )
    assert code == 0
    values = parse_kv(out)
    assert values["wardrop_altruistic_bypass"] == "nan"
    assert values["wardrop_pass"] == "false"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_with_a_nan_certificate_is_not_converged(capsys, demo_config_file):
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(demo_config_file), "--alpha", "0.8", "--beta", "1e308"
    )
    assert code == 3
    values = parse_kv(out)
    assert values["dynamics_converged"] == "false"
    assert values["wardrop_max_product"] == "nan"
    assert values["verify_pass"] == "false"


def test_poa_evaluates_the_worst_case_once_at_the_given_beta(
    capsys, demo_config_file, monkeypatch
):
    import onramp.cli
    import onramp.robustness

    betas = []
    original = onramp.robustness.worst_case_social_delay

    def counting(config, derived, summary, beta, interval):
        betas.append(beta)
        return original(config, derived, summary, beta, interval)

    monkeypatch.setattr(onramp.cli, "worst_case_social_delay", counting)
    monkeypatch.setattr(onramp.robustness, "worst_case_social_delay", counting)
    code, out, _ = run_cli(
        capsys, "poa", "--config", str(demo_config_file),
        "--beta", "0.3", "--e-lower", "0.5", "--e-upper", "2",
    )
    assert code == 0
    assert betas.count(0.3) == 1
    values = parse_kv(out)
    assert float(values["poa"]) == pytest.approx(
        float(values["worst_case_j_soc"]) / float(values["j_opt"]), rel=1e-10
    )
