"""Command-line front door: exit codes, report fragments, artifact
determinism, logging control, and flag validation."""

import csv
import filecmp
import json
import math

import pytest

from thermoflow import (Roof, Sft, Suspension, deviation_frequency,
                        equilibrium_state, gibbs_ratio_stats, zero_potential)
from thermoflow import io as tfio
from thermoflow.cli import main

from conftest import data_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- exit codes ---------------------------------------------------------------

def test_spec_tau_golden(capsys):
    code, out, _ = run_cli(capsys, "spec-tau", "--sft",
                           data_path("golden.json"))
    assert code == 0
    assert "tau = 1" in out
    assert "witness table" in out


def test_circle_rejected_exit_2(capsys):
    code, _, err = run_cli(capsys, "pressure", "--graph",
                           data_path("circle.json"))
    assert code == 2
    assert "fundamental group is Z: excluded case" in err


def test_unknown_subcommand_exit_64(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 64
    assert "unknown subcommand" in err


def test_no_model_exit_64(capsys):
    code, _, err = run_cli(capsys, "spec-tau")
    assert code == 64
    assert "--sft/--graph" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "spec-tau", "--sft", "/nonexistent.json")
    assert code == 2
    assert "model rejected" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "spec-tau", "--sft", str(bad))
    assert code == 2


def test_help_exit_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "subcommands:" in out


# --- golden reports -----------------------------------------------------------

def test_pressure_rose2_spectral(capsys):
    code, out, _ = run_cli(capsys, "pressure", "--graph",
                           data_path("rose2.json"), "--potential",
                           data_path("zero4.json"))
    assert code == 0
    assert "P = 1.098612" in out  # log 3


def test_pressure_reads_symbols_past_nine(capsys, tmp_path):
    """A rose of six unit loops has 12 directed edges, each followed by 11;
    its width-1 table keyed "0," ... "11," gives phi = 1/2 everywhere and
    P = log 11 + 1/2.  The key "10" is the word (1, 0) and exits 2."""
    rose6 = tmp_path / "rose6.json"
    rose6.write_text(json.dumps({"vertices": 1, "edges": [
        {"from": 0, "to": 0, "length": "1"}] * 6}))
    phi = tmp_path / "phi.json"
    table = {f"{e},": 0.5 for e in range(12)}
    phi.write_text(json.dumps({"type": "cylinder", "width": 1,
                               "table": table}))
    code, out, _ = run_cli(capsys, "pressure", "--graph", str(rose6),
                           "--potential", str(phi))
    assert code == 0
    assert f"P = {math.log(11) + 0.5:.6f}" in out
    table["10"] = table.pop("10,")
    phi.write_text(json.dumps({"type": "cylinder", "width": 1,
                               "table": table}))
    code, _, err = run_cli(capsys, "pressure", "--graph", str(rose6),
                           "--potential", str(phi))
    assert code == 2
    assert "potential key '10' reads as the word (1, 0)" in err


def test_pressure_all_methods_spread(capsys):
    code, out, _ = run_cli(capsys, "pressure", "--sft",
                           data_path("full2.json"), "--potential",
                           data_path("zero.json"), "--method", "all")
    assert code == 0
    assert "P = 0.693147" in out  # log 2, spectral
    assert "method agreement: spread =" in out


def test_equilibrium_report(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--sft",
                           data_path("golden.json"), "--potential",
                           data_path("zero.json"))
    assert code == 0
    assert "h(mu)        = 0.481211825" in out  # log golden ratio
    assert "variational identity" in out


def test_equidistribute_width2_potential(capsys, tmp_path):
    phi = tmp_path / "phi2.json"
    phi.write_text(json.dumps({"type": "cylinder", "width": 2, "table": {
        "00": 0.1, "01": -0.2, "10": 0.3, "11": 0.0}}))
    code, out, _ = run_cli(capsys, "equidistribute", "--sft",
                           data_path("full2.json"), "--potential", str(phi))
    assert code == 0
    assert "D(nu_t, mu) vs t" in out


def test_glue_verifies_shadowing(capsys):
    code, out, _ = run_cli(capsys, "glue", "--sft",
                           data_path("golden.json"), "--delta", "0.3",
                           "--seed", "7")
    assert code == 0
    assert "shadowing verified: True" in out
    assert "all transition times within bound: True" in out


def test_glue_on_exact_graph_writes_json(capsys, tmp_path):
    """The theta graph's roof holds Fractions; the report's :.6f fields
    and glue.json must still get floats."""
    code, out, _ = run_cli(capsys, "glue", "--graph",
                           data_path("theta.json"), "--delta", "0.3",
                           "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "glue.json") as f:
        artifact = json.load(f)
    assert artifact["shadowing_verified"] is True


def test_pressure_reads_exact_roof_strings(capsys, tmp_path):
    """A JSON roof of strings is read exactly: 1/3 gives the lattice 1/3."""
    roof = tmp_path / "roof.json"
    roof.write_text(json.dumps({"roof": ["1", "1/3"]}))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "pressure", "--sft",
                         data_path("golden.json"), "--roof", str(roof),
                         "--potential", data_path("zero.json"),
                         "--method", "gurevic", "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "pressure.json") as f:
        assert json.load(f)["gurevic"]["diagnostics"]["lattice"] == 3


def test_ldp_singular_kkt_exits_3(capsys, tmp_path):
    """A direct rate solve that meets a singular KKT matrix near an end of
    the psi range is a non-convergence (exit 3), not a rejected model."""
    code, _, err = run_cli(capsys, "ldp", "--sft", data_path("full2.json"),
                           "--psi", data_path("psi_ind1.json"),
                           "--epsilon", repr(0.5 - 1e-10), "--samples",
                           "100", "--seed", "1", "--out", str(tmp_path))
    assert code == 3
    assert "non-convergence: Newton solve" in err
    assert "singular KKT matrix" in err


def test_ldp_rates_and_monte_carlo_row(capsys, tmp_path):
    """In process on full2 with psi the indicator of symbol 1 and eps =
    0.1: both rate columns are the Cramer rate log 2 - H(0.6) of fair coin
    flips within 1e-9, and the Monte Carlo row is a direct
    `deviation_frequency` call with the run's seed, t = 50 and n."""
    code, _, _ = run_cli(capsys, "ldp", "--sft", data_path("full2.json"),
                         "--psi", data_path("psi_ind1.json"), "--epsilon",
                         "0.1", "--samples", "400", "--seed", "5", "--out",
                         str(tmp_path))
    assert code == 0
    with open(tmp_path / "rate_function.csv") as f:
        (eps, q_leg, q_dir), = list(csv.reader(f))[2:]
    q = math.log(2) + 0.6 * math.log(0.6) + 0.4 * math.log(0.4)
    assert float(eps) == 0.1
    assert abs(float(q_leg) - q) <= 1e-9
    assert abs(float(q_dir) - q) <= 1e-9
    with open(tmp_path / "deviation_mc.csv") as f:
        (row,) = list(csv.reader(f))[2:]
    system = Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0]))
    psi = tfio.load_potential(tfio.read_json(data_path("psi_ind1.json")))
    dev = deviation_frequency(system,
                              equilibrium_state(system, zero_potential()),
                              psi, 0.1, 50.0, 400, 5)
    assert [float(x) for x in row] == [0.1, 50.0, dev.frequency,
                                       dev.log_rate, dev.ci_low, dev.ci_high]


def test_ldp_monte_carlo_rows_over_an_eps_grid(capsys, tmp_path):
    """The CLI walks its sample once for the whole eps grid; each row is
    still a `deviation_frequency` call with the run's seed."""
    code, _, _ = run_cli(capsys, "ldp", "--sft", data_path("golden.json"),
                         "--roof", data_path("golden_roof12.json"), "--psi",
                         data_path("psi_ind1.json"), "--epsilon",
                         "0.05,0.1,0.3", "--samples", "500", "--seed", "9",
                         "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "deviation_mc.csv") as f:
        rows = list(csv.reader(f))[2:]
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 2.0]))
    psi = tfio.load_potential(tfio.read_json(data_path("psi_ind1.json")))
    mu = equilibrium_state(system, zero_potential())
    want = []
    for eps in (0.05, 0.1, 0.3):
        dev = deviation_frequency(system, mu, psi, eps, 50.0, 500, 9)
        want.append([eps, 50.0, dev.frequency, dev.log_rate, dev.ci_low,
                     dev.ci_high])
    assert [[float(x) for x in row] for row in rows] == want


def test_pressure_json_reports_perron_iterations(capsys, tmp_path):
    """pressure.json carries the Perron solves and their products M v."""
    code, _, _ = run_cli(capsys, "pressure", "--sft",
                         data_path("golden.json"), "--potential",
                         data_path("phi_small.json"), "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "pressure.json") as f:
        d = json.load(f)["spectral"]["diagnostics"]
    assert d["perron_iterations"] >= d["perron_solves"] > 0


def test_distance_potential_is_an_unknown_type(capsys, tmp_path):
    """Only cylinder (and zero) potentials load: a file of the removed
    "distance" type exits 2 and the message names the type."""
    phi = tmp_path / "distance.json"
    phi.write_text(json.dumps({"type": "distance", "scale": 1.0}))
    code, _, err = run_cli(capsys, "pressure", "--graph",
                           data_path("rose2.json"), "--potential", str(phi))
    assert code == 2
    assert "unknown potential type 'distance'" in err


@pytest.mark.parametrize("subcommand", ["pressure", "equilibrium"])
def test_potential_missing_a_word_names_it(capsys, tmp_path, subcommand):
    """A width-2 table on golden without the admissible word 10 exits 2,
    and the message names the word and the table's width."""
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"type": "cylinder", "width": 2,
                               "table": {"00": 0.1, "01": -0.2}}))
    code, _, err = run_cli(capsys, subcommand, "--sft",
                           data_path("golden.json"), "--potential", str(phi))
    assert code == 2
    assert "width-2 potential table has no value for the word (1, 0)" \
        in err


@pytest.mark.parametrize("subcommand", ["pressure", "equilibrium", "gibbs"])
def test_reducible_sft_exits_2(capsys, subcommand):
    """A reducible SFT is rejected before any Perron solve: every
    subcommand that needs one exits 2 with the same message."""
    code, _, err = run_cli(capsys, subcommand, "--sft",
                           data_path("reducible.json"), "--potential",
                           data_path("phi_small.json"), "--seed", "0")
    assert code == 2
    assert "model rejected: system is not irreducible" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_potential_with_a_non_finite_value_names_it(capsys, tmp_path, value):
    """A table value that is not a finite number exits 2 before any solve,
    and the message names the word."""
    phi = tmp_path / "phi.json"
    phi.write_text('{"type": "cylinder", "table": {"0": %s, "1": 0.1}}'
                   % value)
    code, _, err = run_cli(capsys, "pressure", "--sft",
                           data_path("golden.json"), "--potential", str(phi))
    assert code == 2
    assert "width-1 potential table has the non-finite value" in err
    assert "for the word (0,)" in err


def test_graph_lengths_and_roof_values_read_alike():
    """Graph lengths and roof entries follow one rule: a JSON number is the
    binary fraction it stores, a string is parsed exactly."""
    from fractions import Fraction
    from thermoflow import io as tfio
    for q, want in ((0.1, Fraction(0.1)), ("1/10", Fraction(1, 10))):
        edge = {"from": 0, "to": 0, "length": q}
        length = tfio.load_graph({"vertices": 1,
                                  "edges": [edge, edge]}).roof[0]
        value = tfio.load_roof({"roof": [q]}).values[0]
        assert Fraction(length) == Fraction(value) == want
    assert isinstance(length, Fraction) and isinstance(value, Fraction)


# --- flag validation ----------------------------------------------------------

def test_seed_mandatory_for_sampling(capsys):
    code, _, err = run_cli(capsys, "glue", "--sft",
                           data_path("golden.json"), "--delta", "0.3")
    assert code == 64
    assert "--seed is mandatory" in err


def test_ldp_requires_psi(capsys):
    code, _, err = run_cli(capsys, "ldp", "--sft", data_path("full2.json"),
                           "--seed", "1")
    assert code == 64
    assert "--psi is required" in err


@pytest.mark.parametrize("subcommand", ["gibbs", "ldp"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_a_usage_error(capsys, subcommand, samples):
    code, _, err = run_cli(capsys, subcommand, "--sft",
                           data_path("full2.json"), "--potential",
                           data_path("phi_small.json"), "--psi",
                           data_path("psi_ind1.json"), "--t-grid", "5",
                           "--samples", samples, "--seed", "1")
    assert code == 64
    assert f"--samples must be at least 1, got {samples}" in err


# the model flags each subcommand needs, so that only the number is wrong
MODEL_FLAGS = {
    "glue": ["--sft", "golden.json", "--seed", "7"],
    "gibbs": ["--sft", "full2.json", "--potential", "phi_small.json",
              "--samples", "10", "--seed", "1"],
    "ldp": ["--sft", "full2.json", "--psi", "psi_ind1.json", "--samples",
            "10", "--seed", "1"],
    "pressure": ["--sft", "full2.json", "--potential", "zero.json"],
    "entropy-dense": ["--sft", "full2.json", "--seed", "0"],
}


@pytest.mark.parametrize("subcommand, flag, value", [
    ("glue", "--delta", "0"), ("glue", "--delta", "-0.1"),
    ("glue", "--delta", "inf"), ("gibbs", "--delta", "0"),
    ("gibbs", "--delta", "-0.1"), ("gibbs", "--delta", "nan"),
    ("ldp", "--epsilon", "nan"), ("ldp", "--epsilon", "-0.1"),
    ("ldp", "--epsilon", "0.1,inf"), ("ldp", "--t-grid", "0"),
    ("ldp", "--t-grid", "5,nan"), ("gibbs", "--t-grid", "-5"),
    ("pressure", "--max-period", "-3"), ("pressure", "--max-period", "0"),
    ("entropy-dense", "--eta", "0"), ("entropy-dense", "--eta", "nan"),
])
def test_numeric_flag_out_of_range_is_a_usage_error(capsys, subcommand,
                                                    flag, value):
    """--delta, --eta, --max-period and --t-grid values must be finite and
    positive, --epsilon values finite and >= 0; anything else exits 64
    before any computation (delta <= 0 used to loop forever)."""
    argv = [subcommand] + [data_path(a) if a.endswith(".json") else a
                           for a in MODEL_FLAGS[subcommand]]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 64
    assert f"error: {flag} must be finite and " in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["pressure", "--sft", "full2.json"], "error: --potential is required"),
    (["glue", "--sft", "golden.json", "--seed", "1"],
     "error: --delta is required for glue"),
    (["entropy-dense", "--sft", "full3.json", "--eta", "0.1", "--seed", "0"],
     "error: entropy-dense supports 2-symbol base shifts"),
    (["pressure", "--sft", "full2.json", "--frobnicate"],
     "unrecognized arguments: --frobnicate"),
])
def test_usage_errors_exit_64(capsys, tmp_path, argv, message):
    """A missing required flag, a 3-symbol entropy-dense model and an
    unknown flag (argparse's own exit) all exit 64 with the message."""
    (tmp_path / "full3.json").write_text(
        json.dumps({"transitions": [[1, 1, 1]] * 3}))
    argv = [str(tmp_path / a) if a == "full3.json"
            else data_path(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert message in err


def test_entropy_dense_random_components_on_golden(capsys):
    """On a shift that is not full, entropy-dense draws its two components
    at random from the seed; on golden at eta = 0.1 the certificate holds."""
    code, out, _ = run_cli(capsys, "entropy-dense", "--sft",
                           data_path("golden.json"), "--eta", "0.1",
                           "--seed", "0")
    assert code == 0
    cert = next(line for line in out.splitlines()
                if line.startswith("count certificate:"))
    assert cert.endswith("True")


def test_entropy_dense_requires_eta(capsys):
    code, _, err = run_cli(capsys, "entropy-dense", "--sft",
                           data_path("full2.json"), "--seed", "0")
    assert code == 64
    assert "--eta is required" in err


def test_entropy_dense_certificate_deterministic(capsys, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, out, _ = run_cli(capsys, "entropy-dense", "--sft",
                               data_path("full2.json"), "--eta", "0.05",
                               "--seed", "0", "--out", str(d))
        assert code == 0
        cert = next(line for line in out.splitlines()
                    if line.startswith("count certificate:"))
        assert cert.endswith("True")
    assert filecmp.cmp(dirs[0] / "entropy_dense.json",
                       dirs[1] / "entropy_dense.json", shallow=False)


def test_entropy_dense_small_eta_doubles_the_gluing_time(capsys, tmp_path):
    """At eta = 0.005 the count rate at the first gluing time, t = 1600,
    is below its bound; the run doubles t once, where the certificate
    holds, and exits 0."""
    code, out, _ = run_cli(capsys, "entropy-dense", "--sft",
                           data_path("full2.json"), "--eta", "0.005",
                           "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    cert = next(line for line in out.splitlines()
                if line.startswith("count certificate:"))
    assert cert.endswith("True")
    with open(tmp_path / "entropy_dense.json") as f:
        assert json.load(f)["count_certificate"]["t"] == 3200.0


# --- artifacts ----------------------------------------------------------------

def test_artifacts_bitwise_deterministic(capsys, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(capsys, "gibbs", "--sft",
                             data_path("full2.json"), "--potential",
                             data_path("phi_small.json"), "--t-grid",
                             "5,10", "--samples", "50", "--seed", "11",
                             "--out", str(d))
        assert code == 0
    assert filecmp.cmp(dirs[0] / "gibbs.csv", dirs[1] / "gibbs.csv",
                       shallow=False)


def test_gibbs_honours_samples(capsys, tmp_path):
    """An explicit --samples reaches gibbs_ratio_stats, uncapped."""
    code, _, _ = run_cli(capsys, "gibbs", "--sft", data_path("full2.json"),
                         "--potential", data_path("phi_small.json"),
                         "--t-grid", "5,10", "--samples", "1000", "--seed",
                         "11", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "gibbs.csv") as f:
        rows = list(csv.reader(f))[2:]
    system = Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0]))
    phi = tfio.load_potential(tfio.read_json(data_path("phi_small.json")))
    stats = gibbs_ratio_stats(system, equilibrium_state(system, phi), phi,
                              0.05, [5.0, 10.0], 1000, 11)
    assert [(float(lo), float(hi)) for _, lo, hi, _ in rows] == \
        [stats["per_t"][5.0], stats["per_t"][10.0]]


def test_artifact_embeds_config_hash_and_version(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "spec-tau", "--sft",
                           data_path("golden.json"), "--out",
                           str(tmp_path))
    assert code == 0
    with open(tmp_path / "spec_tau.json") as f:
        payload = json.load(f)
    assert payload["tau"] == 1
    assert len(payload["config_hash"]) == 16
    assert payload["config_hash"] in out  # header shows the same hash
    assert payload["version"]


def test_config_hash_ignores_out_dir(capsys, tmp_path):
    hashes = []
    for sub in ("x", "y"):
        d = tmp_path / sub
        run_cli(capsys, "spec-tau", "--sft", data_path("golden.json"),
                "--out", str(d))
        with open(d / "spec_tau.json") as f:
            hashes.append(json.load(f)["config_hash"])
    assert hashes[0] == hashes[1]


# --- logging ------------------------------------------------------------------

def test_log_level_env(capsys, monkeypatch):
    import logging
    monkeypatch.setenv("THERMOFLOW_LOG", "info")
    # basicConfig only applies to an unconfigured root logger
    root = logging.getLogger()
    old_handlers, old_level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        code, out, _ = run_cli(capsys, "spec-tau", "--sft",
                               data_path("golden.json"))
        assert code == 0
        assert root.getEffectiveLevel() <= logging.INFO
    finally:
        root.handlers[:] = old_handlers
        root.setLevel(old_level)


def test_log_level_invalid_falls_back(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("THERMOFLOW_LOG", "verbose")
    code, _, _ = run_cli(capsys, "spec-tau", "--sft",
                         data_path("golden.json"))
    assert code == 0  # invalid level only warns, never fails
