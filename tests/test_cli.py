import argparse
import dataclasses
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qopt
from qopt.cats import CatState
from qopt.cli import ConfigError, _parser, execute_job, main, parse_config, write_output
from qopt.gaussian import q_eval, wigner_eval
from qopt.io import PHASE_SPACE_HEADER, format_lattice

from oracles import cat_marginal


def run_cli(tmp_path, command, config=None, extra=None):
    argv = [command, "--out-dir", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg_path)]
    if extra:
        argv += extra
    return main(argv)


def joined(artifacts):
    """Artifacts with each lattice's blocks joined into its bytes."""
    return {name: content if isinstance(content, str) else b"".join(content)
            for name, content in artifacts.items()}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


class TestParseConfig:
    def test_minimal_pnd_job(self):
        cfg = parse_config(json.dumps({"state": {"kind": "coherent", "alpha": 1.0}}), "pnd")
        assert cfg.command == "pnd"

    def test_unknown_command_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"command": "transmogrify"}))
        assert err.value.field == "command"

    def test_decreasing_grid_named(self):
        doc = {"state": {"kind": "coherent", "alpha": 1.0},
               "grid": {"q": [0.0, -1.0], "p": [0.0, 1.0]}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc), "wigner")
        assert err.value.field == "grid.q"

    def test_missing_field_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"state": {"kind": "thermal"}}), "pnd")
        assert "temperature" in err.value.field

    def test_command_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"command": "pnd"}), "wigner")

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json", "pnd")


class TestJobs:
    def test_pnd_squeezed_matches_closed_form(self, tmp_path):
        config = {"state": {"kind": "squeezed_vacuum", "r": 1.0}}
        assert run_cli(tmp_path, "pnd", config) == 0
        header, rows = read_csv(tmp_path / "out" / "pnd.csv")
        assert header == ["n1", "probability"]
        probs = {int(n): p for n, p in rows}
        for m in range(6):
            want = (math.factorial(2 * m) / math.factorial(m) ** 2
                    * (math.tanh(1.0) / 2) ** (2 * m) / math.cosh(1.0))
            assert probs[2 * m] == pytest.approx(want, abs=1e-10)
            assert probs.get(2 * m + 1, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_wigner_odd_cat_has_negative_region(self, tmp_path):
        config = {"state": {"kind": "cat", "A": [[1.5, 0.0]], "parity": "odd"},
                  "grid": {"q": {"min": -4, "max": 4, "num": 41},
                           "p": {"min": -4, "max": 4, "num": 41}},
                  "plot": True}
        assert run_cli(tmp_path, "wigner", config) == 0
        _, rows = read_csv(tmp_path / "out" / "wigner.csv")
        assert rows[:, 2].min() < -0.5
        script = (tmp_path / "out" / "wigner.gp").read_text()
        assert '"wigner.csv"' in script  # relative reference

    def test_qfunc_vacuum(self, tmp_path):
        config = {"state": {"kind": "coherent", "alpha": 0.0},
                  "grid": {"q": {"min": -2, "max": 2, "num": 9},
                           "p": {"min": -2, "max": 2, "num": 9}}}
        assert run_cli(tmp_path, "qfunc", config) == 0
        _, rows = read_csv(tmp_path / "out" / "qfunc.csv")
        for q, p, val in rows:
            assert val == pytest.approx(math.exp(-(q * q + p * p) / 2), abs=1e-12)

    def test_evolve_oscillator(self, tmp_path):
        config = {"state": {"kind": "coherent", "alpha": 1.0},
                  "hamiltonian": {"preset": "oscillator"},
                  "t_end": 2 * math.pi, "num": 5}
        assert run_cli(tmp_path, "evolve", config) == 0
        header, rows = read_csv(tmp_path / "out" / "evolve.csv")
        assert header[:3] == ["t", "mean_0", "mean_1"]
        assert rows[-1, 1] == pytest.approx(0.0, abs=1e-8)           # <p> after a period
        assert rows[-1, 2] == pytest.approx(math.sqrt(2), abs=1e-8)  # <q> after a period
        flow_header, flow_rows = read_csv(tmp_path / "out" / "flow.csv")
        assert flow_header[1:5] == ["lam_00", "lam_01", "lam_10", "lam_11"]
        assert flow_rows[-1, 1] == pytest.approx(1.0, abs=1e-8)
        meta = json.loads((tmp_path / "out" / "evolve.meta.json").read_text())
        assert meta["error_estimate"] == 0.0  # one exact step
        assert meta["symplectic_defect"] < 1e-13

    def test_epsilon_free_particle(self, tmp_path):
        config = {"profile": {"preset": "free"}, "t_end": 2.0, "num": 5}
        assert run_cli(tmp_path, "epsilon", config) == 0
        header, rows = read_csv(tmp_path / "out" / "epsilon.csv")
        assert header == ["t", "re_eps", "im_eps", "re_epsdot", "im_epsdot"]
        for t, re_e, im_e, re_ed, im_ed in rows:
            assert re_e == pytest.approx(1.0, abs=1e-9)
            assert im_e == pytest.approx(t, abs=1e-9)
        meta = json.loads((tmp_path / "out" / "epsilon.meta.json").read_text())
        assert meta["wronskian_defect"] < 1e-7
        assert meta["error_estimate"] == 0.0  # one exact step

    def test_epsilon_defect_stays_finite_with_the_rows(self, tmp_path):
        # at t_end = 400 the rows are finite (e^400 ~ 5e173) although eps * conj(epsdot) is
        # not; the defect is taken relative to the scale of those products
        config = {"profile": {"preset": "repulsive"}, "t_end": 400.0, "num": 3}
        assert run_cli(tmp_path, "epsilon", config) == 0
        meta = json.loads((tmp_path / "out" / "epsilon.meta.json").read_text())
        assert meta["wronskian_defect"] < 1e-13
        assert "warnings" not in meta

    def test_epsilon_table_reports_error_estimate(self, tmp_path):
        config = {"profile": {"table": [[0, 1], [6, 0.7], [13, 1.3], [20, 0.9]]}, "t_end": 20.0}
        assert run_cli(tmp_path, "epsilon", config) == 0
        meta = json.loads((tmp_path / "out" / "epsilon.meta.json").read_text())
        assert 0.0 < meta["error_estimate"] < 20.0 * 1e-9 * 10
        assert meta["wronskian_defect"] < 1e-13

    def test_cat_moments(self, tmp_path):
        config = {"state": {"kind": "cat", "A": [[1.0, 0.0]], "parity": "even"}}
        assert run_cli(tmp_path, "cat", config) == 0
        _, rows = read_csv(tmp_path / "out" / "cat_moments.csv")
        assert rows[0, 1] == pytest.approx(math.tanh(1.0), rel=1e-10)
        assert rows[0, 3] > 0  # super-Poissonian

    def test_tomo_forward_and_invert(self, tmp_path):
        fwd = {"state": {"kind": "squeezed_vacuum", "r": 0.5},
               "n_angles": 64, "x": {"min": -8, "max": 8, "num": 129}}
        assert run_cli(tmp_path, "tomo-forward", fwd) == 0
        sino_path = tmp_path / "out" / "sinogram.csv"
        inv = {"sinogram": str(sino_path),
               "grid": {"q": {"min": -8, "max": 8, "num": 129},
                        "p": {"min": -8, "max": 8, "num": 129}}}
        assert run_cli(tmp_path, "tomo-invert", inv) == 0
        _, rows = read_csv(tmp_path / "out" / "wigner_reconstructed.csv")
        center = rows[np.abs(rows[:, 0]) + np.abs(rows[:, 1]) < 1e-9]
        assert center[0, 2] == pytest.approx(2.0, abs=0.1)

    def test_tomo_forward_cat_is_exact_by_default(self, tmp_path):
        config = {"state": {"kind": "cat", "A": [[1.5, 0.0]], "parity": "odd"}, "n_angles": 12}
        assert run_cli(tmp_path, "tomo-forward", config) == 0
        assert json.loads((tmp_path / "out" / "tomo-forward.meta.json").read_text())[
            "method"] == "exact"
        _, rows = read_csv(tmp_path / "out" / "sinogram.csv")
        want = [cat_marginal(1.5, "odd", theta, x) for theta, x, _ in rows]
        assert np.abs(rows[:, 2] - want).max() < 1e-12

    def test_pnd_cat_meets_mass_target(self, tmp_path, capsys):
        # the even cat A = 5 needs total 62, past the 32 photons of a fixed-total cat table
        config = {"state": {"kind": "cat", "A": [[5.0, 0.0]], "parity": "even"}}
        assert run_cli(tmp_path, "pnd", config) == 0
        meta = json.loads((tmp_path / "out" / "pnd.meta.json").read_text())
        assert not meta["cap_hit"] and meta["max_total_degree"] == 62
        assert meta["cumulative_probability"] >= 1 - 1e-10
        assert "warnings" not in meta and capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "out" / "pnd.csv")
        assert rows[:, 0].tolist() == list(range(63))

    def test_pnd_cat_truncation_warns(self, tmp_path, capsys):
        config = {"state": {"kind": "cat", "A": [[10.0, 0.0]], "parity": "even"}}
        assert run_cli(tmp_path, "pnd", config) == 0
        meta = json.loads((tmp_path / "out" / "pnd.meta.json").read_text())
        assert meta["cap_hit"] and meta["max_total_degree"] == 64
        assert [w["message"] for w in meta["warnings"]] == [
            f"photon enumeration hit the degree cap 64 with cumulative mass "
            f"{meta['cumulative_probability']:.12f}"]
        assert "degree cap 64" in capsys.readouterr().err

    def test_pnd_strongly_squeezed_vacuum(self, tmp_path):
        # 2M + I >= I: a physical state however large r is; the table stops at the cap
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "squeezed_vacuum", "r": 16.5}}) == 0
        meta = json.loads((tmp_path / "out" / "pnd.meta.json").read_text())
        assert meta["cap_hit"] and meta["max_total_degree"] == 64

    def test_qfunc_strongly_squeezed_vacuum(self, tmp_path):
        r = 16.5
        config = {"state": {"kind": "squeezed_vacuum", "r": r},
                  "grid": {"q": {"min": -1, "max": 1, "num": 3},
                           "p": {"min": -1, "max": 1, "num": 3}}}
        assert run_cli(tmp_path, "qfunc", config) == 0
        _, rows = read_csv(tmp_path / "out" / "qfunc.csv")
        want = ((math.exp(2 * r) + 1) * (math.exp(-2 * r) + 1) / 4) ** -0.5
        assert rows[4, 2] == pytest.approx(want, rel=1e-12)  # the origin

    def test_verify_command(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify") == 0
        doc = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert doc["passed"]
        assert len(doc["checks"]) >= 10
        out = capsys.readouterr().out
        assert out.count("[pass]") == len(doc["checks"])


_CAT2 = {"kind": "cat", "A": [[0.9, 0.3], [0.4, -0.7]], "parity": "odd"}
_CAT1 = {"kind": "cat", "A": [[1.0, 0.0]], "parity": "odd"}
_VALID_SINOGRAM = "<the valid_sinogram fixture>"  # a config path the test replaces
# conditionals: a scalar t runs them, the array of times that w^2(t) is evaluated on does not
_CONDITIONALS = ("1 if t < 1 else 2", "0 < t < 1", "t > 1 and t < 2")


@pytest.fixture(scope="module")
def valid_sinogram(tmp_path_factory) -> str:
    """Path of a 32-angle sinogram CSV, which tomo-invert accepts."""
    out = tmp_path_factory.mktemp("sinogram")
    config = {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": 32,
              "x": {"min": -6, "max": 6, "num": 65}}
    assert run_cli(out, "tomo-forward", config) == 0
    return str(out / "out" / "sinogram.csv")


class TestDeterminismAndErrors:
    def test_reruns_are_byte_identical(self, tmp_path):
        jobs = [
            ("pnd", {"state": {"kind": "squeezed_vacuum", "r": 1.0}}),
            ("wigner", {"state": {"kind": "cat", "A": [[1.2, 0.0]], "parity": "even"},
                        "grid": {"q": {"min": -3, "max": 3, "num": 21},
                                 "p": {"min": -3, "max": 3, "num": 21}}}),
            ("epsilon", {"profile": {"expression": "1 + 0.2*sin(t)"}, "t_end": 4.0}),
        ]
        for command, config in jobs:
            cfg = parse_config(json.dumps(config), command)
            first = execute_job(cfg)
            second = execute_job(cfg)
            assert joined(first) == joined(second)
            d1 = tmp_path / command / "run1"
            d2 = tmp_path / command / "run2"
            write_output(first, d1)
            write_output(second, d2)
            for path in sorted(d1.iterdir()):
                assert path.read_bytes() == (d2 / path.name).read_bytes()

    def test_sidecar_carries_convention_tag(self, tmp_path):
        cfg = parse_config(json.dumps({"state": {"kind": "coherent", "alpha": 1.0}}), "pnd")
        artifacts = execute_job(cfg)
        meta = json.loads(artifacts["pnd.meta.json"])
        assert "2M+I" in meta["qrep_convention"]
        assert meta["version"]
        assert meta["config"]["state"]["kind"] == "coherent"

    def test_config_error_exit_code_and_json(self, tmp_path, capsys):
        code = run_cli(tmp_path, "pnd", {"state": {"kind": "nonsense"}})
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert "state" in err["error"]["field"]

    @pytest.mark.parametrize("command, config, field", [
        ("pnd", {"state": {"kind": "coherent", "alpha": 1.0, "alhpa": 3}, "degre_cap": 2},
         "degre_cap"),
        ("pnd", {"state": {"kind": "coherent", "alpha": 1.0, "alhpa": 3}}, "state.alhpa"),
        # a misspelled required field is named by its misspelling, not as missing
        ("pnd", {"state": {"kind": "coherent", "alhpa": 3}}, "state.alhpa"),
        # a misspelled selector or profile form is named too, and a field of another kind
        ("pnd", {"state": {"knd": "coherent", "alpha": 1.0}}, "state.knd"),
        ("pnd", {"state": {"kind": "coherent", "alpha": 1.0, "r": 0.5}}, "state.r"),
        ("epsilon", {"profile": {"expresion": "1"}, "t_end": 1.0}, "profile.expresion"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                    "hamiltonian": {"preset": "parametric", "omega_squared": {
                        "expresion": "1"}}}, "hamiltonian.omega_squared.expresion"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                    "hamiltonian": {"preset": "free", "mas": 2.0}}, "hamiltonian.mas"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                    "hamiltonian": {"B": [[1, 0], [0, 1]], "c": [0, 1]}}, "hamiltonian.c"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                    "hamiltonian": {"preset": "parametric", "omega_squared": {
                        "expression": "1", "expresion": "2"}}},
         "hamiltonian.omega_squared.expresion"),
        ("wigner", {"state": {"kind": "coherent", "alpha": 1.0},
                    "grid": {"q": {"min": -1, "max": 1, "nmu": 5}, "p": [0, 1]}}, "grid.q.nmu"),
        ("wigner", {"state": {"kind": "coherent", "alpha": 1.0},
                    "grid": {"q": [0, 1], "pp": [0, 1]}}, "grid.pp"),
        ("verify", {"checks": 3}, "checks"),
    ])
    def test_misspelled_field_names_its_path(self, tmp_path, capsys, command, config, field):
        assert run_cli(tmp_path, command, config) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", field)
        assert "unknown field" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, field, message", [
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                    "hamiltonian": {"preset": "free", "B": [[1, 0], [0, 1]]}},
         "hamiltonian", "give either 'preset' or 'B'"),
        ("epsilon", {"profile": {"expression": "1", "tabel": [[0, 1], [1, 1]]}, "t_end": 1.0},
         "profile.tabel", "unknown field"),
        ("epsilon", {"profile": {"expresion": "1"}, "t_end": 1.0}, "profile.expresion",
         "unknown field"),
    ])
    def test_form_rules_keep_their_messages(self, tmp_path, capsys, command, config, field,
                                            message):
        # the preset-or-B rule runs before the unknown-key check; a misspelled form is unknown
        assert run_cli(tmp_path, command, config) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["field"] == field and message in err["message"]

    def test_execution_error_exit_code_and_json(self, tmp_path, capsys):
        # valid config, but the inversion input file is missing
        code = run_cli(tmp_path, "tomo-invert",
                       {"sinogram": str(tmp_path / "missing.csv"),
                        "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]}})
        assert code == 2  # caught at config level: named field
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["field"] == "sinogram"

    @pytest.mark.parametrize("n_angles", [10, 31])
    def test_too_few_angles_is_config_error(self, tmp_path, capsys, n_angles):
        # an existing sinogram of fewer than 32 angles is a bad sinogram document
        fwd = {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": n_angles,
               "x": {"min": -6, "max": 6, "num": 65}}
        assert run_cli(tmp_path, "tomo-forward", fwd) == 0
        capsys.readouterr()
        inv = {"sinogram": str(tmp_path / "out" / "sinogram.csv"),
               "grid": {"q": {"min": -6, "max": 6, "num": 65},
                        "p": {"min": -6, "max": 6, "num": 65}}}
        code = run_cli(tmp_path, "tomo-invert", inv)
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", "sinogram")
        assert f"at least 32 angles, got {n_angles}" in err["message"]

    def test_sinogram_with_a_short_row_is_config_error(self, tmp_path, capsys, valid_sinogram):
        header, *rows = Path(valid_sinogram).read_text(encoding="utf-8").splitlines()
        rows[4] = rows[4].rsplit(",", 1)[0]
        (tmp_path / "short.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        grid = {"q": {"min": -6, "max": 6, "num": 65}, "p": {"min": -6, "max": 6, "num": 65}}
        code = run_cli(tmp_path, "tomo-invert", {"sinogram": str(tmp_path / "short.csv"),
                                                 "grid": grid})
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", "sinogram")
        assert "malformed sinogram row" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("span, field", [(None, "x"), (1e-9, "wigner_span")])
    def test_numeric_square_that_cuts_the_state_off_is_config_error(self, tmp_path, capsys,
                                                                    span, field):
        # without wigner_span the sampled square reaches max |x| = 1e-9, far inside the state
        config = {"state": {"kind": "coherent", "alpha": 0.5}, "method": "numeric",
                  "x": [0.0, 1e-9]}
        if span is not None:
            config["wigner_span"] = span
        assert run_cli(tmp_path, "tomo-forward", config) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", field)
        assert "does not hold the state" in err["message"]
        assert not (tmp_path / "out").exists()
        config["wigner_span"] = 8.0  # a square that holds the state
        assert run_cli(tmp_path, "tomo-forward", config) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["pnd", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["field"] == "--config"
        assert "does not exist" in err["error"]["message"]

    def test_config_path_naming_a_directory(self, tmp_path, capsys):
        (tmp_path / "job.json").mkdir()
        code = main(["pnd", "--config", str(tmp_path / "job.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", "--config")
        assert not (tmp_path / "out").exists()

    def test_sinogram_path_naming_a_directory(self, tmp_path, capsys):
        (tmp_path / "sinogram.csv").mkdir()
        grid = {"q": {"min": -4, "max": 4, "num": 9}, "p": {"min": -4, "max": 4, "num": 9}}
        code = run_cli(tmp_path, "tomo-invert",
                       {"sinogram": str(tmp_path / "sinogram.csv"), "grid": grid})
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["field"]) == ("config", "sinogram")

    def test_threads_give_identical_results(self, tmp_path):
        # --threads is accepted and ignored: every job runs the same serial path
        config = {"state": {"kind": "cat", "A": [[1.0, 0.5]], "parity": "even"},
                  "grid": {"q": {"min": -3, "max": 3, "num": 33},
                           "p": {"min": -3, "max": 3, "num": 33}}}
        for run in ("serial", "threads"):
            (tmp_path / run).mkdir()
        assert run_cli(tmp_path / "serial", "wigner", config) == 0
        assert run_cli(tmp_path / "threads", "wigner", config, ["--threads", "4"]) == 0
        serial = sorted((tmp_path / "serial" / "out").iterdir())
        assert [p.name for p in serial] == ["wigner.csv", "wigner.meta.json"]
        for path in serial:
            assert path.read_bytes() == (tmp_path / "threads" / "out" / path.name).read_bytes()

    @pytest.mark.parametrize("command, config, field", [
        ("pnd", {"state": _CAT2, "degree_cap": -1}, "degree_cap"),
        ("cat", {"state": _CAT2, "degree_cap": -1}, "degree_cap"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "degree_cap": -1},
         "degree_cap"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "mass_tol": -1},
         "mass_tol"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "mass_tol": 0},
         "mass_tol"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "mass_tol": 1},
         "mass_tol"),
        ("tomo-forward", {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": 0},
         "n_angles"),
        ("tomo-forward", {"state": {"kind": "cat", "A": [[1.0, 0.0]], "parity": "odd"},
                          "method": "numeric", "wigner_samples": 1}, "wigner_samples"),
        ("tomo-forward", {"state": {"kind": "cat", "A": [[1.0, 0.0]], "parity": "odd"},
                          "method": "numeric", "wigner_samples": 2}, "wigner_samples"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "oscillator"}, "t_end": 1.0, "num": 0}, "num"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "num": 0}, "num"),
    ])
    def test_bad_count_field_is_config_error(self, tmp_path, capsys, command, config, field):
        assert run_cli(tmp_path, command, config) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert err["field"] == field
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, field", [
        ("pnd", {"state": _CAT2, "degree_cap": "ten"}, "degree_cap"),
        ("pnd", {"state": _CAT2, "degree_cap": 2.7}, "degree_cap"),
        ("pnd", {"state": _CAT2, "degree_cap": True}, "degree_cap"),
        ("pnd", {"state": _CAT2, "degree_cap": float("inf")}, "degree_cap"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "degree_cap": "64"},
         "degree_cap"),
        ("tomo-forward", {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": 90.5},
         "n_angles"),
        ("tomo-forward", {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": float("nan")},
         "n_angles"),
        ("tomo-forward", {"state": {"kind": "coherent", "alpha": 0.0},
                          "x": {"min": -6, "max": 6, "num": 64.5}}, "x.num"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "num": [3]}, "num"),
        ("tomo-forward", {"state": _CAT1, "method": "numeric", "wigner_samples": False},
         "wigner_samples"),
        ("tomo-forward", {"state": _CAT1, "method": "numeric", "wigner_span": 0}, "wigner_span"),
        ("tomo-forward", {"state": _CAT1, "method": "numeric", "wigner_span": -12.0},
         "wigner_span"),
        ("tomo-forward", {"state": _CAT1, "method": "numeric", "wigner_span": float("inf")},
         "wigner_span"),
        ("tomo-forward", {"state": _CAT1, "method": "numeric", "wigner_span": "12"},
         "wigner_span"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": "ten"}, "t_end"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": True}, "t_end"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": float("nan")}, "t_end"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "oscillator"}, "t_end": float("nan")}, "t_end"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "tol": "1e-9"}, "tol"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "tol": False}, "tol"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "oscillator"}, "t_end": 1.0,
                    "tol": float("nan")}, "tol"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "tol": 0}, "tol"),
        ("tomo-invert", {"sinogram": _VALID_SINOGRAM, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]},
                         "reg_s": "0.01"}, "reg_s"),
        ("tomo-invert", {"sinogram": _VALID_SINOGRAM, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]},
                         "reg_s": True}, "reg_s"),
        ("tomo-invert", {"sinogram": _VALID_SINOGRAM, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]},
                         "reg_s": float("nan")}, "reg_s"),
        ("pnd", {"state": {"kind": "thermal", "temperature": 1.0}, "mass_tol": "x"},
         "mass_tol"),
        ("wigner", {"state": _CAT1, "grid": {"q": {"min": "-4", "max": 4, "num": 9},
                                             "p": {"min": -4, "max": 4, "num": 9}}},
         "grid.q.min"),
        ("wigner", {"state": _CAT1, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]}, "plot": "no"},
         "plot"),
        ("pnd", {"state": {"kind": "gaussian", "mean": [0, 0],
                           "disp": [[float("nan"), 0], [0, 0.5]]}}, "state.disp[0][0]"),
        ("pnd", {"state": {"kind": "thermal", "temperature": "1"}}, "state.temperature"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "oscillator", "mass": "2"}, "t_end": 1.0},
         "hamiltonian.mass"),
        ("epsilon", {"profile": {"table": [[0, 1], [1, float("inf")]]}, "t_end": 1.0},
         "profile.table[1][1]"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 0}, "t_end"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 10 ** 400}, "t_end"),
        # state, Hamiltonian and profile documents: each field is checked by its table
        *(("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                      "hamiltonian": {"preset": preset, "mass": 0}, "t_end": 1.0},
           "hamiltonian.mass") for preset in ("free", "oscillator", "parametric")),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "hamiltonian": {"B": 3},
                    "t_end": 1.0}, "hamiltonian.B"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"B": [[1.0, 0.0, 0.0]]}, "t_end": 1.0}, "hamiltonian.B"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "anharmonic"}, "t_end": 1.0}, "hamiltonian.preset"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "free", "B": [[1.0, 0.0], [0.0, 0.0]]},
                    "t_end": 1.0}, "hamiltonian"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "parametric"}, "t_end": 1.0},
         "hamiltonian.omega_squared"),
        *(("epsilon", {"profile": {"expression": text}, "t_end": 1.0}, "profile.expression")
          for text in ("1/t", "1e400", "sqrt(t - 1)", "1 +", "outside(t)", *_CONDITIONALS)),
        *(("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "t_end": 1.0,
                      "hamiltonian": {"preset": "parametric",
                                      "omega_squared": {"expression": text}}},
           "hamiltonian.omega_squared.expression") for text in ("1/t", "1e400", *_CONDITIONALS)),
        ("epsilon", {"profile": {"table": [[0, 1], [1, 2]], "expression": "1"}, "t_end": 1.0},
         "profile"),
        ("epsilon", {"profile": {}, "t_end": 1.0}, "profile"),
        ("epsilon", {"profile": {"preset": "attractive"}, "t_end": 1.0}, "profile.preset"),
        ("epsilon", {"profile": {"table": [[0, 1]]}, "t_end": 1.0}, "profile.table"),
        ("pnd", {"state": {"kind": "gaussian", "n_modes": 1.5, "mean": [0, 0],
                           "disp": [[0.5, 0], [0, 0.5]]}}, "state.n_modes"),
        ("pnd", {"state": {"kind": "gaussian", "n_modes": 2, "mean": [0, 0],
                           "disp": [[0.5, 0], [0, 0.5]]}}, "state.n_modes"),
        ("pnd", {"state": {"kind": "cat", "A": [[1, 0, 5]], "parity": "even"}}, "state.A"),
        ("pnd", {"state": {"kind": "cat", "A": [[1, 0]], "parity": "both"}}, "state.parity"),
        ("pnd", {"state": {"mean": [0, 0]}}, "state.kind"),
        # each command's state rule
        ("wigner", {"state": _CAT2, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]}}, "state"),
        ("tomo-forward", {"state": _CAT2}, "state"),
        ("evolve", {"state": _CAT1, "hamiltonian": {"preset": "oscillator"}, "t_end": 1.0},
         "state.kind"),
        ("cat", {"state": {"kind": "coherent", "alpha": 1.0}}, "state.kind"),
        # the kind is checked before the fields it selects
        ("cat", {"state": {"kind": "coherent", "alpha": "x"}}, "state.kind"),
        # tomography's axes are uniform and hold at least two points
        ("tomo-forward", {"state": _CAT1, "x": [-6, -5, -3, 0, 2, 6]}, "x"),
        ("tomo-forward", {"state": _CAT1, "x": [1.0]}, "x"),
        ("tomo-invert", {"sinogram": _VALID_SINOGRAM,
                         "grid": {"q": [-3, -1, 0, 2, 3], "p": [0.0, 1.0]}}, "grid.q"),
    ])
    def test_non_integral_count_or_bad_span_is_config_error(self, tmp_path, capsys, command,
                                                            config, field, valid_sinogram):
        if config.get("sinogram") == _VALID_SINOGRAM:
            config = {**config, "sinogram": valid_sinogram}
        assert run_cli(tmp_path, command, config) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert err["field"] == field
        assert not (tmp_path / "out").exists()
        if any(text in json.dumps(config) for text in _CONDITIONALS):
            assert "must evaluate elementwise on an array of times" in err["message"]

    def test_integral_float_count_runs_as_int(self, tmp_path):
        for run, degree_cap in (("int", 6), ("float", 6.0)):
            (tmp_path / run).mkdir()
            assert run_cli(tmp_path / run, "pnd", {"state": _CAT2, "degree_cap": degree_cap}) == 0
        assert ((tmp_path / "int" / "out" / "pnd.csv").read_bytes()
                == (tmp_path / "float" / "out" / "pnd.csv").read_bytes())

    def test_non_finite_artifact_fails(self, tmp_path, capsys):
        # the repulsive solution grows like e^t and leaves double range long before t = 800
        config = {"profile": {"preset": "repulsive"}, "t_end": 800.0, "num": 3}
        assert run_cli(tmp_path, "epsilon", config) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert err["type"] == "NonFiniteError"
        assert "t=" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, target, artifact", [
        ("pnd", {"state": _CAT2, "degree_cap": 2}, "photon_pnd_table", "pnd.csv"),
        ("cat", {"state": _CAT2, "degree_cap": 2}, "photon_pnd_table", "cat_pnd.csv"),
        ("wigner", {"state": _CAT1, "grid": {"q": [0.0, 1.0], "p": [0.0, 1.0]}},
         "wigner_eval", "wigner.csv"),
        ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                    "hamiltonian": {"preset": "oscillator"}, "t_end": 1.0, "num": 3},
         "evolve_gaussian", "evolve.csv"),
        ("tomo-forward", {"state": {"kind": "coherent", "alpha": 0.0}, "n_angles": 4},
         "gaussian_sinogram", "sinogram.csv"),
        ("epsilon", {"profile": {"preset": "free"}, "t_end": 1.0, "num": 3},
         "solve_epsilon", "epsilon.csv"),
    ])
    def test_non_finite_value_names_artifact(self, tmp_path, capsys, monkeypatch, command,
                                             config, target, artifact):
        # qopt.cli binds the gaussian functions at import and looks the others up in their
        # modules when the job runs
        owner = {"evolve_gaussian": "qopt.dynamics", "gaussian_sinogram": "qopt.tomography",
                 "solve_epsilon": "qopt.parametric"}.get(target, "qopt.cli")
        module = importlib.import_module(owner)
        real = getattr(module, target)

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            if target == "photon_pnd_table":
                return dataclasses.replace(out, probabilities=np.full_like(out.probabilities,
                                                                           np.nan))
            if target == "evolve_gaussian":
                return type(out)(out.mean, np.full_like(out.disp, np.inf))
            if target == "gaussian_sinogram":
                return type(out)(out.theta_grid, out.x_grid, np.full_like(out.values, np.nan))
            if target == "solve_epsilon":
                out.eps = lambda t: (np.full(np.shape(t), np.nan + 0j),) * 2
                return out
            return np.full_like(out, np.nan)

        monkeypatch.setattr(module, target, poisoned)
        assert run_cli(tmp_path, command, config) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert err["type"] == "NonFiniteError"
        assert err["message"].startswith(artifact)
        assert not (tmp_path / "out").exists()

    def test_library_warnings_go_to_sidecar_and_stderr(self, tmp_path, capsys):
        # the README pnd example: squeezed vacuum at r = 1 hits the degree cap of 64
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "squeezed_vacuum", "r": 1.0}}) == 0
        meta = json.loads((tmp_path / "out" / "pnd.meta.json").read_text())
        assert meta["cap_hit"]
        assert len(meta["warnings"]) == 1
        assert meta["warnings"][0]["category"] == "UserWarning"
        assert "degree cap 64" in meta["warnings"][0]["message"]
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{"warning": meta["warnings"][0]}]
        # a job that raises no warning has no key and prints nothing
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "coherent", "alpha": 1.0}}) == 0
        assert "warnings" not in json.loads((tmp_path / "out" / "pnd.meta.json").read_text())
        assert capsys.readouterr().err == ""

    def test_overflowing_evolve_fails(self, tmp_path, capsys):
        # the inverted oscillator's flow leaves double range long before t = 800
        config = {"state": {"kind": "coherent", "alpha": 1.0},
                  "hamiltonian": {"B": [[1.0, 0.0], [0.0, -1.0]]}, "t_end": 800.0}
        assert run_cli(tmp_path, "evolve", config) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert err["type"] == "NonFiniteError"
        assert "t=" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_failed_job_reports_its_warnings(self, tmp_path, capsys, monkeypatch):
        # a job that warns and then fails on a non-finite sidecar number prints its warnings
        # before the error line
        import qopt.parametric

        def overflowing(flow):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return math.inf

        monkeypatch.setattr(qopt.parametric, "wronskian_defect", overflowing)
        config = {"profile": {"preset": "repulsive"}, "t_end": 6.0, "num": 3}
        assert run_cli(tmp_path, "epsilon", config) == 1
        *warned, last = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert last["error"]["type"] == "NonFiniteError"
        assert last["error"]["message"].startswith("epsilon.meta.json")
        assert "wronskian_defect" in last["error"]["message"]
        assert not (tmp_path / "out").exists()
        assert warned == [{"warning": {"category": "RuntimeWarning",
                                       "message": "overflow encountered in multiply"}}]

    def test_underflowing_vacuum_probability_fails(self, tmp_path, capsys):
        # p0 = exp(-900) is 0 in double precision, so every probability would read 0
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "coherent", "alpha": 30.0}}) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "NonFiniteError"
        assert not (tmp_path / "out").exists()


class TestSidecarHealth:
    """The README's Gaussian example state on the README's tomography grid."""

    STATE = {"kind": "squeezed_vacuum", "r": 1.0}
    GRID = {"q": {"min": -12, "max": 12, "num": 257}, "p": {"min": -12, "max": 12, "num": 257}}

    @pytest.mark.parametrize("command", ["wigner", "qfunc"])
    def test_density_mass_and_boundary(self, command):
        cfg = parse_config(json.dumps({"state": self.STATE, "grid": self.GRID}), command)
        meta = json.loads(execute_job(cfg)[f"{command}.meta.json"])
        assert meta["mass"] == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= meta["boundary_peak_ratio"] < 1e-6

    def test_small_grid_reports_lost_mass(self):
        cfg = parse_config(json.dumps({"state": {"kind": "coherent", "alpha": 0.0},
                                       "grid": {"q": {"min": -2, "max": 2, "num": 9},
                                                "p": {"min": -2, "max": 2, "num": 9}}}),
                           "qfunc")
        meta = json.loads(execute_job(cfg)["qfunc.meta.json"])
        assert meta["mass"] < 0.95
        assert meta["boundary_peak_ratio"] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_tomo_invert_blur_variance(self, tmp_path):
        fwd = parse_config(json.dumps({"state": self.STATE}), "tomo-forward")
        write_output(execute_job(fwd), tmp_path)
        inv = parse_config(json.dumps({"sinogram": str(tmp_path / "sinogram.csv"),
                                       "grid": self.GRID, "reg_s": 0.02}), "tomo-invert")
        meta = json.loads(execute_job(inv)["tomo-invert.meta.json"])
        assert meta["blur_variance"] == 0.02 / 4
        assert meta["reconstructed_mass"] == pytest.approx(1.0, abs=1e-2)
        # the slices end far below their peak: the grid's corners, at 12 sqrt(2), lie past
        # the sinogram's x range, whose marginals are zero-extended there without a warning
        assert 0.0 <= meta["boundary_peak_ratio"] < 1e-6
        assert "warnings" not in meta

    def test_tomo_invert_warns_of_cut_marginals(self, tmp_path, capsys):
        # a coherent state at alpha = 3.2 on x in [-6, 6]: some slices end at 11 % of their
        # peak, so the zeros past the range cut them off
        fwd = {"state": {"kind": "coherent", "alpha": 3.2}, "n_angles": 32,
               "x": {"min": -6, "max": 6, "num": 65}}
        assert run_cli(tmp_path, "tomo-forward", fwd) == 0
        grid = {"q": {"min": -6, "max": 6, "num": 33}, "p": {"min": -6, "max": 6, "num": 33}}
        assert run_cli(tmp_path, "tomo-invert",
                       {"sinogram": str(tmp_path / "out" / "sinogram.csv"), "grid": grid}) == 0
        meta = json.loads((tmp_path / "out" / "tomo-invert.meta.json").read_text())
        assert 0.1 < meta["boundary_peak_ratio"] < 0.12
        assert [w["category"] for w in meta["warnings"]] == ["UserWarning"]
        assert "sinogram slices end at" in meta["warnings"][0]["message"]
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{"warning": meta["warnings"][0]}]


class TestStreamedLattices:
    """Lattice files: grids evaluated in row blocks, text written block by block."""

    @pytest.mark.parametrize("command", ["wigner", "qfunc"])
    def test_row_blocks_match_one_evaluation(self, command):
        # 241 x 301 points: blocks of 54 rows, the last one short
        state = CatState([1.2 + 0.4j], "odd")
        q, p = np.linspace(-5.0, 5.0, 241), np.linspace(-4.0, 4.0, 301)
        qq, pp = np.meshgrid(q, p, indexing="ij")
        if command == "wigner":
            values = wigner_eval(state, np.stack([pp, qq], axis=-1))
        else:
            values = q_eval(state, ((qq + 1j * pp) / math.sqrt(2.0))[..., np.newaxis])
        cfg = parse_config(json.dumps({
            "state": {"kind": "cat", "A": [[1.2, 0.4]], "parity": "odd"},
            "grid": {"q": {"min": -5, "max": 5, "num": 241},
                     "p": {"min": -4, "max": 4, "num": 301}}}), command)
        text = b"".join(execute_job(cfg)[f"{command}.csv"]).decode("ascii")
        assert text == format_lattice(PHASE_SPACE_HEADER, q, p, values)

    @staticmethod
    def traced_peak(cfg, out_dir) -> int:
        tracemalloc.start()
        try:
            write_output(execute_job(cfg), out_dir)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a 1201^2 grid holds 11.5 MB of float64 values, and its wigner.csv 67.5 MB of text
    N = 1201
    GRID = {"q": {"min": -6, "max": 6, "num": N}, "p": {"min": -6, "max": 6, "num": N}}
    GRID_BYTES = 8 * N * N

    def test_wigner_job_memory_follows_the_grid(self, tmp_path):
        cfg = parse_config(json.dumps({"state": {"kind": "cat", "A": [[1.5, 0.0]],
                                                 "parity": "even"}, "grid": self.GRID}),
                           "wigner")
        peak = self.traced_peak(cfg, tmp_path)
        size = (tmp_path / "wigner.csv").stat().st_size
        (tmp_path / "wigner.csv").unlink()
        assert size > 5 * self.GRID_BYTES
        # the values, the sidecar figures' temporaries and one block of text
        assert peak <= 4 * self.GRID_BYTES, (peak, size)

    def test_tomo_invert_memory_follows_the_grid(self, tmp_path):
        fwd = parse_config(json.dumps({"state": {"kind": "squeezed_vacuum", "r": 0.5},
                                       "n_angles": 32}), "tomo-forward")
        write_output(execute_job(fwd), tmp_path)
        inv = parse_config(json.dumps({"sinogram": str(tmp_path / "sinogram.csv"),
                                       "grid": self.GRID}), "tomo-invert")
        peak = self.traced_peak(inv, tmp_path / "inv")
        (tmp_path / "inv" / "wigner_reconstructed.csv").unlink()
        # the reconstruction and its copy; the backprojection's work arrays hold one block
        assert peak <= 4 * self.GRID_BYTES, peak


def readme_examples() -> list[tuple[str, str | None, str | None]]:
    """(command, config file, its text) of each job of the README's example block, in order;
    the files are those its ``echo`` and ``cat`` lines write."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example jobs:")[1].split("```bash\n")[1].split("```")[0]
    files, jobs, lines = {}, [], iter(block.splitlines())
    for line in lines:
        if match := re.fullmatch(r"echo '(.*)' > (\S+)", line):
            files[match[2]] = match[1]
        elif match := re.fullmatch(r"cat > (\S+) <<'JSON'", line):
            files[match[1]] = "\n".join(iter(lines.__next__, "JSON"))
        elif match := re.fullmatch(r"qopt (\S+)(?: --config (\S+))? --out-dir out/", line):
            jobs.append((match[1], match[2], files.get(match[2])))
    return jobs


class TestInProcessReuse:
    """``main`` called many times in one process, as a batch runner calls it."""

    @staticmethod
    def write_configs(root: Path, jobs) -> None:
        root.mkdir()
        for _, name, text in jobs:
            if name is not None:
                (root / name).write_text(text, encoding="utf-8")

    @staticmethod
    def argv(command, name) -> list[str]:
        return [command, *(["--config", name] if name else []), "--out-dir", "out/"]

    @staticmethod
    def snapshot(out: Path) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def test_readme_examples_match_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        jobs = readme_examples()
        assert [command for command, *_ in jobs] == [
            "pnd", "cat", "wigner", "tomo-forward", "tomo-invert", "evolve", "epsilon",
            "verify"]
        fresh = tmp_path / "fresh"
        self.write_configs(fresh, jobs)
        src = str(Path(qopt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        for command, name, _ in jobs:
            subprocess.run([sys.executable, "-m", "qopt.cli", *self.argv(command, name)],
                           cwd=fresh, env=env, capture_output=True, check=True)
        want = self.snapshot(fresh / "out")
        assert len(want) == 19
        reused = tmp_path / "reused"
        self.write_configs(reused, jobs)
        monkeypatch.chdir(reused)
        for _ in range(2):  # the second pass overwrites the first one's files
            shutil.rmtree("out", ignore_errors=True)
            for command, name, _ in jobs:
                assert main(self.argv(command, name)) == 0, command
            assert self.snapshot(reused / "out") == want
        capsys.readouterr()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _parser.cache_clear()
        config = {"state": {"kind": "coherent", "alpha": 0.5}}
        assert run_cli(tmp_path, "pnd", config) == 0
        assert run_cli(tmp_path, "cat", {"state": {"kind": "cat", "A": [[0.5, 0.0]],
                                                   "parity": "even"}}) == 0
        assert built == ["qopt"]

    def test_deferred_functions_are_looked_up_when_called(self, tmp_path, monkeypatch):
        # qopt.cli imports parametric and tomography inside the jobs that run them, so a job
        # calls the function its module holds then (bench/tracer.py rebinds them the same way)
        import qopt.parametric
        import qopt.tomography

        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module, name in [(qopt.parametric, "solve_epsilon"),
                             (qopt.tomography, "inverse_radon")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        axis = {"min": -6, "max": 6, "num": 65}
        assert run_cli(tmp_path, "epsilon", {"profile": {"preset": "oscillator"},
                                             "t_end": 6}) == 0
        assert run_cli(tmp_path, "tomo-forward", {"state": {"kind": "coherent", "alpha": 0.5},
                                                  "n_angles": 32, "x": axis}) == 0
        assert run_cli(tmp_path, "tomo-invert", {"sinogram": str(tmp_path / "out" / "sinogram.csv"),
                                                 "grid": {"q": axis, "p": axis}}) == 0
        assert calls == ["solve_epsilon", "inverse_radon"]

    def test_help_and_bad_arguments_after_a_job(self, tmp_path, capsys):
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "coherent", "alpha": 0.5}}) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qopt ")
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qopt ")
        assert "argument command: invalid choice: 'nonsense'" in err
        # a rejected argument list leaves the parser as it was
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "coherent", "alpha": 0.5}}) == 0


class TestTrace:
    CONFIG = {"state": {"kind": "cat", "A": [[1.5, 0.0]], "parity": "even"},
              "grid": {"q": {"min": -4, "max": 4, "num": 81},
                       "p": {"min": -4, "max": 4, "num": 61}}}

    SQUEEZED = {"kind": "squeezed_vacuum", "r": 1.0}
    COHERENT = {"kind": "coherent", "alpha": 0.5}
    X_AXIS = {"min": -6, "max": 6, "num": 65}
    # (command, config, work counters the trace adds); the tomo-invert job reads the sinogram
    # of the numeric tomo-forward job before it
    JOBS = [
        ("wigner", CONFIG, {}),
        ("pnd", {"state": SQUEEZED}, {"photon_rows": 65, "hermite_entries": 257}),  # README job
        ("cat", {"state": {"kind": "cat", "A": [[1.0, 0.0], [0.0, 0.8]], "parity": "odd"}},
         {"photon_rows": 136, "hermite_entries": 0}),
        ("epsilon", {"profile": {"preset": "oscillator"}, "t_end": 6}, {"flow_steps": 1}),
        ("evolve", {"state": SQUEEZED, "hamiltonian": {"preset": "oscillator"}, "t_end": 3},
         {"flow_steps": 1}),
        ("tomo-forward", {"state": COHERENT, "n_angles": 32, "x": X_AXIS},
         {"lines_integrated": 0}),
        ("tomo-forward", {"state": COHERENT, "n_angles": 32, "x": X_AXIS, "method": "numeric",
                          "wigner_samples": 65}, {"lines_integrated": 32 * 65}),
        ("tomo-invert", {"grid": {"q": {"min": -3, "max": 3, "num": 9},
                                  "p": {"min": -3, "max": 3, "num": 7}}},
         {"backprojected_points": 32 * 9 * 7}),
    ]

    def test_trace_file_only_with_the_flag(self, tmp_path):
        stages = ["import_s", "parse_s", "compute_s", "write_and_format_lattices_s"]
        for i, (command, config, work) in enumerate(self.JOBS):
            if command == "tomo-invert":
                config = {**config, "sinogram": str(plain / "sinogram.csv")}
            cfg_path = tmp_path / f"job{i}.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            plain, traced = tmp_path / f"plain{i}", tmp_path / f"traced{i}"
            argv = [command, "--config", str(cfg_path), "--out-dir"]
            assert main(argv + [str(plain)]) == 0
            assert main(argv + [str(traced), "--trace"]) == 0
            names = sorted(path.name for path in plain.iterdir())
            if command == "wigner":
                assert names == ["wigner.csv", "wigner.meta.json"]
            assert sorted(path.name for path in traced.iterdir()) == sorted(
                names + [f"{command}.trace.json"])
            for name in names:
                assert (plain / name).read_bytes() == (traced / name).read_bytes()
            trace = json.loads((traced / f"{command}.trace.json").read_text(encoding="utf-8"))
            assert sorted(trace) == sorted(["command", "max_rss_mb", *stages, *work])
            assert trace["command"] == command
            assert all(0.0 < trace[key] < 60.0 for key in stages)
            assert trace["max_rss_mb"] > 1.0
            assert {key: trace[key] for key in work} == work, command
            sidecar = json.loads((traced / f"{command}.meta.json").read_text(encoding="utf-8"))
            assert not set(work) & set(sidecar)

    def test_failed_job_writes_no_trace(self, tmp_path):
        assert run_cli(tmp_path, "pnd", {"state": {"kind": "nonsense"}}, ["--trace"]) == 2
        assert not (tmp_path / "out").exists()


class TestDocuments:
    """State, Hamiltonian and profile documents as ``parse_config`` reads them."""

    @staticmethod
    def hamiltonian(doc):
        config = {"state": {"kind": "coherent", "alpha": 1.0}, "hamiltonian": doc, "t_end": 1.0}
        return parse_config(json.dumps(config), "evolve").values["hamiltonian"]

    def test_hamiltonian_presets(self):
        ham = self.hamiltonian({"preset": "oscillator", "mass": 2.0, "omega": 3.0})
        assert np.array_equal(ham.b_matrix(0.0), np.diag([0.5, 18.0]))
        ham = self.hamiltonian({"preset": "free", "mass": 4.0})
        assert np.array_equal(ham.b_matrix(0.0), np.diag([0.25, 0.0]))
        assert np.array_equal(self.hamiltonian({"preset": "oscillator"}).b_matrix(0.0), np.eye(2))
        ham = self.hamiltonian({"preset": "parametric", "mass": 2.0,
                                "omega_squared": {"table": [[0, 1], [2, 3]]}})
        assert np.array_equal(ham.b_matrix(1.0), np.diag([0.5, 4.0]))

    def test_constant_matrices(self):
        ham = self.hamiltonian({"B": [[1.0, 0.2], [0.2, 0.5]], "C": [0.1, 0.0]})
        assert ham.n_modes == 1
        assert np.array_equal(ham.c_vector(1.0), [0.1, 0.0])
        ham = self.hamiltonian({"B": np.eye(4).tolist()})
        assert ham.n_modes == 2
        assert np.array_equal(ham.c_vector(0.0), np.zeros(4))

    @pytest.mark.parametrize("doc, kind, w2", [({"preset": "free"}, "preset_free", 0.0),
                                               ({"table": [[0, 1], [1, 2]]}, "tabulated", 1.5),
                                               ({"expression": "t*t"}, "expression", 0.25)])
    def test_profile_kinds(self, doc, kind, w2):
        profile = parse_config(json.dumps({"profile": doc, "t_end": 1.0}),
                               "epsilon").values["profile"]
        assert profile.kind == kind
        assert profile(0.5) == w2

    def test_gaussian_state_round_trip(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=4)
        a = rng.normal(size=(4, 4))
        disp = a @ a.T + np.eye(4)
        for doc in ({"kind": "gaussian", "n_modes": 2, "mean": mean.tolist(),
                     "disp": disp.tolist()}, {"mean": mean.tolist(), "disp": disp.tolist()}):
            state = parse_config(json.dumps({"state": doc}), "pnd").values["state"]
            assert state.n_modes == 2
            assert np.array_equal(state.mean, mean)
            assert np.array_equal(state.disp, disp)

    def test_cat_round_trip(self):
        amplitudes = np.array([1.0 - 0.5j, 0.3, -0.0 - 2.0j])
        doc = {"kind": "cat", "A": [[z.real, z.imag] for z in amplitudes], "parity": "odd"}
        state = parse_config(json.dumps({"state": doc}), "cat").values["state"]
        assert state.parity == "odd"
        assert np.array_equal(state.amplitudes.view(float), amplitudes.view(float))
        assert np.signbit(state.amplitudes[2].real)


def readme_tables() -> dict:
    """The README's tables as {header cells: [row cells, ...]}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables, rows = {}, None
    for line in readme.splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if rows is None:
            rows = tables.setdefault(tuple(cells), [])
        elif set(line) - set("|-: "):
            rows.append(cells)
    return tables


def check_default(text: str, default, key):
    from qopt.cli import _NO_DEFAULT

    if default is _NO_DEFAULT:
        assert text == "required", key
    elif isinstance(default, bool):
        assert text == json.dumps(default), key
    elif isinstance(default, str):
        assert text == f"`{default}`", key
    elif isinstance(default, np.ndarray):
        grid = json.loads(text.strip("`"))
        assert np.array_equal(default, np.linspace(grid["min"], grid["max"], grid["num"])), key
    elif default is not None:   # None: derived from other fields, described in words
        assert float(text) == default, key


def test_readme_field_table_matches_parser():
    """The README's field tables list exactly the fields and defaults of the parser tables:
    ``_JOBS`` per command, ``_STATES`` per state kind, ``_HAMILTONIANS`` per preset (none:
    the B, C form) and the profile forms of ``_PROFILES``."""
    from qopt.cli import _HAMILTONIANS, _JOBS, _PROFILES, _STATES

    tables = readme_tables()
    for selector, parsed in [("command", _JOBS), ("state `kind`", _STATES),
                             ("Hamiltonian `preset`", _HAMILTONIANS)]:
        # a first cell may list several selectors; "none" is the preset-free form
        documented = {(None if name == "none" else name.strip("`"), field.strip("`")): default
                      for first, field, default, _ in tables[selector, "field", "default", "rule"]
                      for name in first.split(", ")}
        want = {(name, field): default for name, (_, fields) in parsed.items()
                for field, (_, default) in fields.items()}
        assert documented.keys() == want.keys(), selector
        for key, default in want.items():
            check_default(documented[key], default, key)
    profile = tables["profile field", "default", "rule"]
    assert [field.strip("`") for field, *_ in profile] == list(_PROFILES)
    assert {default for _, default, _ in profile} == {"none"}


_PARAMETRIC = {"preset": "parametric", "omega_squared": {"expression": "1 + 0.2*sin(t)"}}


@pytest.mark.parametrize("command, config, artifact", [
    ("evolve", {"state": {"kind": "coherent", "alpha": 1.0},
                "hamiltonian": {"preset": "oscillator", "mass": 1.0, "omega": 1.0},
                "t_end": 2 * math.pi}, "evolve.csv"),
    ("evolve", {"state": {"kind": "coherent", "alpha": 1.0}, "hamiltonian": _PARAMETRIC,
                "t_end": 12.0}, "evolve.csv"),
    ("epsilon", {"profile": {"table": [[0, 1], [6, 0.7], [13, 1.3], [20, 0.9]]},
                 "t_end": 20.0}, "epsilon.csv"),
    ("tomo-forward", {"state": {"kind": "cat", "A": [[1.2, 0.0]], "parity": "odd"},
                      "method": "numeric", "n_angles": 8, "wigner_samples": 129,
                      "x": {"min": -8.0, "max": 8.0, "num": 65}}, "sinogram.csv"),
    ("verify", None, "verify.json"),
], ids=["evolve-constant", "evolve-parametric", "epsilon-table", "tomo-forward-numeric",
        "verify"])
def test_import_loads_no_scipy_solvers(tmp_path, command, config, artifact):
    """Neither importing qopt nor running a job loads any scipy module: the flows, the
    spline prefilter of numeric marginals and every verify check use numpy alone."""
    scipy_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = f"import sys, qopt, qopt.cli; print({scipy_modules})"
    argv = [command, "--out-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "job.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "job.json")]
    job_code = ("import sys; from qopt.cli import main; "
                f"code = main({argv!r}); print(code, {scipy_modules})")
    src = str(Path(qopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    out = subprocess.run([sys.executable, "-c", job_code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "0 []"  # verify prints its checks first
    assert (tmp_path / "out" / artifact).exists()
