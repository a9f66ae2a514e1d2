import json

import numpy as np
import pytest

from penphase.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_stable_adiabatic_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "0.2", "--omega", "0")
        assert code == 0
        assert "classification: Confined" in out
        assert out.count("modes (freq, krein):") == 1
        assert len([l for l in out.splitlines() if l.startswith("  ") and ":" in l]) >= 3

    def test_beyond_critical_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "0.3", "--omega", "0")
        assert code == 0
        assert "classification: Unconfined" in out

    def test_free_particle_boundary(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "0", "--alpha0", "0", "--w", "0")
        assert code == 0
        assert "classification: Boundary" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "0.2", "--omega", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "Confined"
        assert len(doc["eigenvalues"]) == 6
        assert len(doc["modes"]) == 3

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "--k", "-0.2", "--omega", "0")
        assert code == 2
        assert "error:" in err

    def test_parameterization_exclusivity(self, capsys):
        code, _, err = run(capsys, "classify", "--k", "0.2", "--alpha", "1")
        assert code == 2
        code, _, err = run(capsys, "classify", "--alpha", "1", "--alpha0", "1")
        assert code == 2


class TestPhasesCommand:
    def test_rotating_point_has_both_routes(self, capsys):
        code, out, _ = run(capsys, "phases", "--alpha", "0.12", "--alpha0", "0.55",
                           "--w", str(0.55 * 4 / 3), "--n1", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["aa_phase_eq7"] is not None
        assert abs(doc["aa_phase_eq7"] - doc["aa_phase_eq8"]) <= 1e-6 * (1 + abs(doc["aa_phase_eq8"]))
        assert doc["method_spread"] < 1e-6

    def test_adiabatic_point_marks_eq7_absent(self, capsys):
        code, out, _ = run(capsys, "phases", "--k", "0.2", "--omega", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["aa_phase_eq7"] is None
        assert np.isfinite(doc["aa_phase_eq8"])

    def test_no_cyclic_states_exit_code(self, capsys):
        code, _, err = run(capsys, "phases", "--k", "0.3", "--omega", "0")
        assert code == 4
        assert "no cyclic motions" in err


class TestSweepCommands:
    def test_fig1_outputs(self, capsys, tmp_path):
        out_csv = tmp_path / "fig1.csv"
        out_svg = tmp_path / "fig1.svg"
        code, out, _ = run(
            capsys, "sweep-fig1",
            "--alpha-steps", "150", "--alpha0-steps", "150",
            "-o", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        assert "confined components: 4" in out
        assert "unconfined regions: 2" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "alpha,alpha0,class,component"
        assert len(lines) == 1 + 151 * 151
        svg = out_svg.read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert (tmp_path / "fig1.csv.manifest").exists()

    def test_fig1_determinism_and_manifest_roundtrip(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep-fig1", "--alpha-steps", "80", "--alpha0-steps", "80"]
        assert run(capsys, *args, "-o", str(a))[0] == 0
        assert run(capsys, *args, "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        # rerun purely from the manifest
        c = tmp_path / "c.csv"
        code, _, _ = run(capsys, "sweep-fig1", "--config", str(a) + ".manifest",
                         "-o", str(c))
        assert code == 0
        assert c.read_bytes() == a.read_bytes()
        manifest = (tmp_path / "a.csv.manifest").read_text()
        assert "command=sweep-fig1" in manifest
        assert "artifact_version=" in manifest

    def test_fig2_outputs(self, capsys, tmp_path):
        out_csv = tmp_path / "fig2.csv"
        out_svg = tmp_path / "fig2.svg"
        code, _, _ = run(capsys, "curve-fig2", "--points", "50",
                         "-o", str(out_csv), "--svg", str(out_svg))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "k,cos_theta,dw1,dw2,dw3,stable23"
        assert len(lines) == 1 + 50
        assert out_svg.read_text().startswith("<svg ")

    def test_fig2_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run(capsys, "curve-fig2", "--points", "40", "-o", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points=40\nwidgets=7\n")
        code, _, err = run(capsys, "curve-fig2", "--config", str(cfg), "-o",
                           str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown config key" in err

    def test_config_command_mismatch_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "other.cfg"
        cfg.write_text("command=find-kcr\n")
        code, _, err = run(capsys, "curve-fig2", "--config", str(cfg), "-o",
                           str(tmp_path / "x.csv"))
        assert code == 2


class TestFindKcrCommand:
    def test_json_contract(self, capsys, tmp_path):
        out = tmp_path / "kcr.json"
        code, stdout, _ = run(capsys, "find-kcr", "--tol", "1e-7", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"k_cr", "bracket", "tol", "iterations"}
        assert doc["k_cr"] == pytest.approx(0.25831, abs=5e-4)
        assert doc["bracket"][1] - doc["bracket"][0] <= doc["tol"]

    def test_underscore_alias(self, capsys):
        code, out, _ = run(capsys, "find_kcr", "--tol", "1e-5")
        assert code == 0
        assert json.loads(out)["k_cr"] == pytest.approx(0.25831, abs=5e-4)


class TestResonanceCommand:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "resonance", "--alpha", "0.12", "--alpha0", "0.55",
            "--w", str(0.55 * 4 / 3), "--n1", "1", "--delta-omega", "1e-4",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"omega_p", "omega_p_linear", "omega_p_exact",
                            "beta_n", "beta_n_prime", "delta_omega"}
        assert doc["omega_p_linear"] == pytest.approx(doc["omega_p_exact"], abs=1e-6)

    def test_missing_delta_rejected(self, capsys):
        code, _, err = run(capsys, "resonance", "--k", "0.1", "--omega", "0.3")
        assert code == 2

    def test_ambiguous_pairing_exit_code(self, capsys):
        alpha0 = 0.34906544603570067
        code, out, err = run(
            capsys, "resonance", "--alpha", "1.004194013496052", "--alpha0", repr(alpha0),
            "--w", repr(4.0 * alpha0 / 3.0), "--n1", "1", "--np2", "1",
            "--delta-omega", "1e-3",
        )
        assert code == 3
        assert out == "" and "ambiguous mode pairing" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, what", [
        (["sweep-fig1", "--alpha-max", "nan"], "grid extents"),
        (["sweep-fig1", "--alpha-max", "inf"], "grid extents"),
        (["sweep-fig1", "--gap-scale", "nan", "--alpha-steps", "20", "--alpha0-steps", "20"],
         "gap scale"),
        (["find-kcr", "--tol", "nan"], "tolerance"),
        (["find-kcr", "--tol", "inf"], "tolerance"),
        (["resonance", "--k", "0.1", "--omega", "0.3", "--delta-omega", "nan"], "delta_omega"),
        (["sweep-fig1", "--gap-scale", "-4", "--alpha-steps", "20", "--alpha0-steps", "20"],
         "gap scale"),
        (["curve-fig2", "--k-max", "inf"], "k grid"),
        (["curve-fig2", "--k-max", "nan"], "k grid"),
    ])
    def test_domain_error_exit_code(self, capsys, tmp_path, argv, what):
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "-o", str(out_path))
        assert code == 2
        assert f"error: {what} must be finite" in err
        assert out == "" and not out_path.exists()


_PARAMS = ["--alpha", "0.12", "--alpha0", "0.55", "--w", repr(0.55 * 4 / 3), "--n1", "1"]

# each command's options in definition order: the manifest's keys after its header
REPLAY_RUNS = {
    "classify": (
        ["--k", "0.2", "--omega", "0", "--no-json"],
        ["alpha", "alpha0", "w", "k", "omega", "binding", "json", "output"],
    ),
    "phases": (
        _PARAMS,
        ["alpha", "alpha0", "w", "k", "omega", "binding", "n1", "n2", "n3", "output"],
    ),
    "sweep-fig1": (
        ["--alpha-steps", "40", "--alpha0-steps", "30", "--alpha-max", "1.5",
         "--no-auto-extend", "--svg", "{tmp}/map.svg"],
        ["alpha_min", "alpha_max", "alpha_steps", "alpha0_min", "alpha0_max",
         "alpha0_steps", "gap_scale", "auto_extend", "output", "svg"],
    ),
    "curve-fig2": (
        ["--points", "30", "--binding", "oscillator"],
        ["k_min", "k_max", "points", "binding", "output", "svg"],
    ),
    "find-kcr": (["--tol", "1e-5"], ["tol", "output"]),
    "resonance": (
        [*_PARAMS, "--np3", "2", "--delta-omega", "1e-4"],
        ["alpha", "alpha0", "w", "k", "omega", "binding", "n1", "n2", "n3",
         "np1", "np2", "np3", "delta_omega", "output"],
    ),
}


@pytest.mark.parametrize("command", list(REPLAY_RUNS))
def test_manifest_replays_every_command(capsys, tmp_path, command):
    options, keys = REPLAY_RUNS[command]
    output = tmp_path / "result"
    manifest = tmp_path / "result.manifest"
    argv = [command, *(o.format(tmp=tmp_path) for o in options), "-o", str(output)]
    code, first_out, _ = run(capsys, *argv)
    assert code == 0
    produced = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "result.manifest" in produced
    header = ["command", "artifact_version", "gap_factor", "re_factor"]
    lines = manifest.read_text().splitlines()
    assert [line.partition("=")[0] for line in lines] == header + keys
    # replay purely from the manifest: same stdout, same bytes in every file
    code, replay_out, _ = run(capsys, command, "--config", str(manifest))
    assert code == 0
    assert replay_out == first_out
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == produced
