import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SLOW_MODE_POINT, route_spread
from penphase import PenningQuadrupole, cli, make_params_dimensionless
from penphase.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("point, digest", [
        (["--alpha", "0.12", "--alpha0", "0.55", "--w", "0.7333333333333333"],
         "71a49d3192d435499e04576508ad2f9073fd75fc404e161bf48637c73b5d6e70"),
        (["--k", "0.2", "--omega", "0"],
         "68847a85877230bfbff9956e44216d5df166fba31df501b4939f5b8b2baed638"),
        (["--k", "0.1", "--omega", "0.3"],
         "8c7cd0aa876a23a67fade4a2aec4562dc97035bdc485a4bde70e8ced13aa78aa"),
        (["--alpha", "1.4223919813286268", "--alpha0", "0.7499999994924763",
          "--w", "0.9999999993233017"],
         "62c258ca00e8823e017b7304e1630917fbfef182c72a1defa119ad380806005c"),
        (["--k", "0.2", "--omega", "0.3", "--binding", "oscillator"],
         "f482b0ace2008918d154d0e36bb50fe390589f498f8f6f35b2d7a106f76b0e8e"),
        (["--k", "0.2", "--omega", "0", "--binding", "oscillator"],
         "77f5e8bb723c186d10447957d97db4ca188b6fec9c62aef95f02a1e8f89ce837"),
    ])
    def test_json_output_is_pinned(self, capsys, point, digest):
        code, out, _ = run(capsys, "classify", *point, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        assert set(doc) == {"quasienergy", "aa_phase_eq7", "aa_phase_eq8", "dfreq_domega"}
        params = make_params_dimensionless(0.12, 0.55, 0.55 * 4 / 3)
        assert route_spread(params, PenningQuadrupole(params.w0)) < 1e-6

    def test_adiabatic_point_marks_eq7_absent(self, capsys):
        code, out, _ = run(capsys, "phases", "--k", "0.2", "--omega", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["aa_phase_eq7"] is None
        assert np.isfinite(doc["aa_phase_eq8"])

    def test_occupation_beyond_float_range_exit_code(self, capsys):
        code, out, err = run(capsys, "phases", "--k", "0.1", "--omega", "0.01",
                             "--n1", str(10**400))
        assert code == 2
        assert out == "" and "occupations" in err

    def test_overflowing_phase_exit_code(self, capsys):
        code, out, err = run(capsys, "phases", "--k", "0.1", "--omega", "0.01",
                             "--n1", str(10**308), "--n2", "0", "--n3", "0")
        assert code == 2
        assert out == "" and "occupations too large" in err

    def test_no_cyclic_states_exit_code(self, capsys):
        code, _, err = run(capsys, "phases", "--k", "0.3", "--omega", "0")
        assert code == 4
        assert "no cyclic motions" in err

    def test_adiabatic_output_is_pinned(self, capsys):
        # no aa_phase_eq7 at omega = 0: the output reads only eq8 and the
        # mu-cubic derivatives
        code, out, _ = run(capsys, "phases", "--k", "0.2", "--omega", "0", "--n1", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e90f67ba3dcef5f0d9ea1a6936fa9dc47444faa3685b2bf9311313bb18602f54"
        )

    @pytest.mark.parametrize("label", [(0, 0, 0), (1, 0, 0), (0, 2, 1)], ids=["000", "100", "021"])
    def test_slow_mode_point_routes_agree(self, capsys, label):
        # Confined with a 1.7e-5 mode: the ladder basis is normalised by the
        # symplectic form, first order in that frequency, so it exists
        alpha, alpha0 = SLOW_MODE_POINT
        point = ["--alpha", repr(alpha), "--alpha0", repr(alpha0), "--w", repr(4 / 3 * alpha0)]
        code, out, _ = run(capsys, "classify", *point)
        assert code == 0
        assert "classification: Confined" in out
        n = [f"--n{i}={k}" for i, k in enumerate(label, start=1)]
        code, out, _ = run(capsys, "phases", *point, *n)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["aa_phase_eq7"] - doc["aa_phase_eq8"]) <= 1e-6 * (1 + abs(doc["aa_phase_eq8"]))


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

    def test_default_fig1_outputs_are_pinned(self, capsys, tmp_path):
        csv, svg = tmp_path / "fig1.csv", tmp_path / "fig1.svg"
        assert run(capsys, "sweep-fig1", "-o", str(csv), "--svg", str(svg))[0] == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "c54f4871bb07261aac2cc13eac12cdbad4db61464ecc4aa3706829a139019d0e"
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "8fe6e227aa9e439b3561353643415e8a37925440cfb4832aba38fa475279aa85"
        )

    def test_auto_extended_square_map_is_pinned(self, capsys, tmp_path):
        # [0, 1]^2 holds fewer than four components and grows twice, to [0, 2.25]^2
        csv = tmp_path / "sq.csv"
        code, out, _ = run(capsys, "sweep-fig1", "--alpha-max", "1", "--alpha0-max", "1",
                           "--alpha-steps", "40", "--alpha0-steps", "40", "-o", str(csv))
        assert code == 0
        assert "auto-extended: true" in out
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "0cfabd4cbad7752d67ade0961ec203bf82657a3c3fbedce5f6d368334e3512d4"
        )

    @pytest.mark.parametrize("window, alpha_axis, alpha0_axis", [
        # alpha grows 3 -> 4.5 -> 6.75 -> 10; alpha0 starts beyond 10 and stays
        (["--alpha-max", "3", "--alpha0-min", "12", "--alpha0-max", "20",
          "--alpha-steps", "30", "--alpha0-steps", "80"], (0, 10, 100), (12, 20, 80)),
        (["--alpha-max", "3", "--alpha0-max", "20", "--alpha-steps", "30",
          "--alpha0-steps", "100"], (0, 10, 100), (0, 20, 100)),
        # each axis keeps its own step: alpha0 stays at 0.05, not alpha's 0.1
        (["--alpha-max", "2", "--alpha0-max", "3", "--alpha-steps", "20",
          "--alpha0-steps", "60"], (0, 10, 100), (0, 10, 200)),
    ])
    def test_auto_extension_grows_each_axis_at_its_own_step(
        self, capsys, tmp_path, window, alpha_axis, alpha0_axis
    ):
        csv = tmp_path / "map.csv"
        code, out, _ = run(capsys, "sweep-fig1", *window, "-o", str(csv))
        assert code == 0
        assert "auto-extended: true" in out
        rows = [line.split(",")[:2] for line in csv.read_text().splitlines()[1:]]
        for column, (lo, hi, steps) in zip(zip(*rows), (alpha_axis, alpha0_axis)):
            want = {f"{x:.17g}" for x in np.linspace(lo, hi, steps + 1).tolist()}
            assert set(column) == want

    def test_summary_names_the_final_window(self, capsys, tmp_path):
        # alpha grows to 10 while the alpha0 window [12, 20] is kept; the
        # summary says where both axes ended
        code, out, _ = run(capsys, "sweep-fig1", "--alpha-max", "3", "--alpha0-min", "12",
                           "--alpha0-max", "20", "--alpha-steps", "30", "--alpha0-steps", "80",
                           "-o", str(tmp_path / "map.csv"))
        assert code == 0
        assert out.startswith("confined components: ")
        assert out.rstrip().endswith(
            "; window alpha in [0, 10], alpha0 in [12, 20] (auto-extended: true)"
        )

    @pytest.mark.parametrize("binding, digest", [
        ("penning", "7b25f72d3a086d377b302e523469789de457b4c7cb1bf8c09f9d8f3ccfb185cd"),
        ("oscillator", "7953ac85b63a780814a488a4d7681785a90ae48e27611c401daf2b8c4b250e88"),
    ])
    def test_default_fig2_csv_is_pinned(self, capsys, tmp_path, binding, digest):
        csv = tmp_path / "fig2.csv"
        assert run(capsys, "curve-fig2", "--binding", binding, "-o", str(csv))[0] == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest

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

    def test_manifest_pinning_re_factor_is_refused(self, capsys, tmp_path):
        # a manifest written under the two-factor rule (re_factor=1e-09) names a
        # factor this build no longer has, so it is refused, not replayed
        out = tmp_path / "map.csv"
        args = ["--alpha-steps", "20", "--alpha0-steps", "20", "--no-auto-extend"]
        assert run(capsys, "sweep-fig1", *args, "-o", str(out))[0] == 0
        old = tmp_path / "old.manifest"
        old.write_text(out.with_suffix(".csv.manifest").read_text().replace(
            "gap_factor=1e-07\n", "gap_factor=1e-07\nre_factor=1e-09\n"))
        assert "re_factor=1e-09" in old.read_text()
        replay = tmp_path / "replay.csv"
        code, out_text, err = run(capsys, "sweep-fig1", "--config", str(old), "-o", str(replay))
        assert code == 2
        assert "unknown config key 're_factor'" in err
        assert out_text == "" and not replay.exists()


class TestFindKcrCommand:
    def test_json_contract(self, capsys, tmp_path):
        out = tmp_path / "kcr.json"
        code, stdout, _ = run(capsys, "find-kcr", "--tol", "1e-7", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"k_cr", "bracket", "tol", "iterations"}
        assert doc["k_cr"] == pytest.approx(0.25831, abs=5e-4)
        assert doc["bracket"][1] - doc["bracket"][0] <= doc["tol"]

    def test_pinned_output(self, capsys):
        code, out, _ = run(capsys, "find-kcr", "--tol", "1e-7")
        assert code == 0
        assert out == (
            '{\n  "bracket": [\n    0.2583129024505615,\n    0.25831296145915983\n  ],\n'
            '  "iterations": 24,\n  "k_cr": 0.25831293195486066,\n  "tol": 1e-07\n}\n'
        )

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

    # every field comes from quasienergies and eq8, none from eq7
    @pytest.mark.parametrize("point, digest", [
        (["--alpha", "0.3", "--alpha0", "1.0", "--w", "1.3333333333333333"],
         "893417f5869c5440ccc1db1b4bd436a913bcd03188c0c4921539c23427982592"),
        (["--alpha", "0.5", "--alpha0", "0.6", "--w", "0.7999999999999999"],
         "09bda280d78c0d15b63e1792f7bdeebf7431b5d9924b2358b8855a57fcbd450c"),
    ])
    def test_report_is_pinned(self, capsys, point, digest):
        code, out, _ = run(capsys, "resonance", *point, "--n1", "1", "--np3", "2",
                           "--delta-omega", "1e-3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_delta_rejected(self, capsys):
        code, _, err = run(capsys, "resonance", "--k", "0.1", "--omega", "0.3")
        assert code == 2

    def test_near_krein_collision_pairs(self, capsys):
        alpha0 = 0.34906544603570067
        point = ["--alpha", "1.004194013496052", "--alpha0", repr(alpha0),
                 "--w", repr(4.0 * alpha0 / 3.0), "--n1", "1", "--np2", "1"]
        errs = []
        for delta in ("1e-3", "1e-4", "1e-5"):
            code, out, _ = run(capsys, "resonance", *point, "--delta-omega", delta)
            assert code == 0
            doc = json.loads(out)
            errs.append(abs(doc["omega_p_exact"] - doc["omega_p_linear"]))
        assert 30.0 < errs[0] / errs[1] < 300.0 and 30.0 < errs[1] / errs[2] < 300.0

    def test_ambiguous_pairing_exit_code(self, capsys):
        alpha0 = 0.3491215753239909
        code, out, err = run(
            capsys, "resonance", "--alpha", "0.1660630532429236", "--alpha0", repr(alpha0),
            "--w", repr(4.0 * alpha0 / 3.0), "--n1", "1", "--np2", "1",
            "--delta-omega", "-0.05",
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
        # finite, but the squares of such coordinates overflow
        (["sweep-fig1", "--alpha-max", "1e200"], "grid extents"),
        (["classify", "--alpha", "0.1", "--alpha0", "1e100", "--w", "1"], "parameters"),
    ])
    def test_domain_error_exit_code(self, capsys, tmp_path, argv, what):
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "-o", str(out_path))
        assert code == 2
        assert f"error: {what} must be finite" in err
        assert out == "" and not out_path.exists()


class TestWriteFile:
    def test_failed_render_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,bytes\n")

        def render(fh):
            fh.write("half a new file")
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError, match="render failed"):
            cli._write_file(str(path), render)
        assert path.read_bytes() == b"old,bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_render_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,bytes\n")
        cli._write_file(str(path), lambda fh: fh.write("new\n"))
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "fig2.csv"
        code, _, err = run(capsys, "curve-fig2", "--points", "5", "-o", str(out))
        assert code == 2
        assert "cannot write" in err
        assert list(tmp_path.iterdir()) == []


_COMMANDS = ("classify", "phases", "sweep-fig1", "curve-fig2", "find-kcr", "resonance")
_LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12
)
_CONFIG_KEYS = sorted(
    {key for c in _COMMANDS for key in vars(cli.build_parser().parse_args([c]))}
    | {"artifact_version", "gap_factor", "re_factor", "widgets"}
)
_CONFIG_VALUES = [*_COMMANDS, "true", "false", "none", "0", "2", "-1", "1e-3", "nan", "1e200"]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(_COMMANDS),
    lines=st.lists(
        st.one_of(
            st.tuples(
                st.one_of(st.sampled_from(_CONFIG_KEYS), _LINE_TEXT),
                st.one_of(st.sampled_from(_CONFIG_VALUES), _LINE_TEXT),
            ).map("=".join),
            _LINE_TEXT,
        ),
        max_size=6,
    ),
)
def test_config_text_exits_0_or_2(command, lines):
    # the commands are stubbed, so only the config layer and argparse run:
    # any key=value text either parses (0) or is rejected as a domain error (2)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("\n".join(lines), encoding="utf-8")
        stubs = {c: (lambda args: 0) for c in cli._DISPATCH}
        with mock.patch.dict(cli._DISPATCH, stubs), contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg)])
    assert code in (0, 2)


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
    header = ["command", "artifact_version", "gap_factor"]
    lines = manifest.read_text().splitlines()
    assert [line.partition("=")[0] for line in lines] == header + keys
    # replay purely from the manifest: same stdout, same bytes in every file
    code, replay_out, _ = run(capsys, command, "--config", str(manifest))
    assert code == 0
    assert replay_out == first_out
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == produced


def test_commands_load_no_scipy(tmp_path):
    # NumPy is the only runtime dependency: importing the package and running
    # each command leaves no scipy module loaded
    script = f"""
import sys
import penphase, penphase.cli
from penphase.cli import main
for argv in (
    ["classify", "--k", "0.2"],
    ["phases", "--k", "0.2", "--omega", "0.01", "--n1", "1"],
    ["find-kcr"],
    ["curve-fig2", "--points", "20", "-o", {str(tmp_path / "fig2.csv")!r}],
    ["sweep-fig1", "--alpha-steps", "20", "--alpha0-steps", "20",
     "-o", {str(tmp_path / "fig1.csv")!r}],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
