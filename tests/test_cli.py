import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghm
from ghm.cli import load_config, main
from ghm.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("oscillator", "fourdim", "quasisymmetry", "flat_nambu", "moser1", "moser2"):
        assert name in out


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "flat_nambu", "--n", "3", "--k", "3")
    assert code == 0
    assert "overall: PASS" in out

    code, out, _ = run(capsys, "check", "fourdim", "--samples", "20", "--seed", "7")
    assert code == 1
    assert "jacobi" in out and "FAIL" in out and "closure(w)" in out

    code, out, _ = run(capsys, "check", "oscillator")
    assert code == 1
    assert "fundamental-identity" in out

    code, out, _ = run(capsys, "check", "oscillator", "--identities", "closure,jacobi")
    assert code == 0


def test_check_deterministic_stdout(capsys):
    code1, out1, _ = run(capsys, "check", "fourdim", "--samples", "15", "--seed", "3")
    code2, out2, _ = run(capsys, "check", "fourdim", "--samples", "15", "--seed", "3")
    assert (code1, out1) == (code2, out2)


def test_check_unknown_identity(capsys):
    code, _, err = run(capsys, "check", "oscillator", "--identities", "nope")
    assert code == 2
    assert "unknown identities" in err


def test_check_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "flat_nambu", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["pass"] is True
    assert doc["rng"] == "numpy-PCG64"
    assert {c["token"] for c in doc["checks"]} == {"closure", "jacobi", "fi", "measure"}


def test_unknown_system(capsys):
    code, _, err = run(capsys, "check", "nosuch")
    assert code == 2
    assert "unknown system" in err


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "flat_nambu", "--n", "4", "--k", "3",
                       "--point", "0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is True
    assert doc["surjectivity_possible"] is False
    assert doc["x"] == [0.0, 0.0, -1.0, 0.0]

    code, out, _ = run(capsys, "solve", "fourdim", "--point", "1,1,1,2")
    assert json.loads(out)["x"] == [0.0, 0.5, 0.0, 0.0]

    code, _, err = run(capsys, "solve", "fourdim", "--point", "1,1")
    assert code == 2


def test_simulate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", "oscillator", "--x0", "0,1,1,0,0,2",
                       "--t-end", "2", "--dt", "1e-2", "--out", str(out_path))
    assert code == 0
    assert "drift[H]" in out and "drift[G1]" in out and "drift[G2]" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6,H1,H2,div"
    assert len(lines) == 202


def test_simulate_truncation_exit3(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", "fourdim", "--x0", "1,1,1,0.2",
                       "--t-end", "2", "--dt", "1e-3", "--out", str(out_path))
    assert code == 3
    assert "truncated" in out
    assert out_path.exists() and len(out_path.read_text().splitlines()) > 1


def test_simulate_requires_x0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "oscillator", "--t-end", "1"])
    assert exc.value.code == 2


def test_simulate_bad_x0(capsys):
    code, _, err = run(capsys, "simulate", "oscillator", "--x0", "0,1",
                       "--t-end", "1")
    assert code == 2


def test_flatten(capsys):
    code, out, _ = run(capsys, "flatten", "moser1", "--f", "2", "--t", "1",
                       "--samples", "50")
    assert code == 0
    assert "max pullback residual" in out
    residual = float(out.splitlines()[-1].split("=")[1])
    assert residual <= 1e-8

    code, out, _ = run(capsys, "flatten", "moser2", "--f", "1", "--g", "1", "--t", "0")
    assert code == 0
    assert float(out.splitlines()[-1].split("=")[1]) == 0.0

    code, _, err = run(capsys, "flatten", "moser1", "--f", "-1")
    assert code == 2


def test_config_system(tmp_path, capsys):
    doc = {
        "name": "plane",
        "n": 2,
        "k": 2,
        "mode": "form",
        "coefficients": {"1,2": "1"},
        "hamiltonians": ["(x1^2 + x2^2)/2"],
        "params": {},
        "domain": [[-3, 3], [-3, 3]],
        "base_point": [0.5, 0.5],
    }
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    system = load_config(str(path))
    assert system.n == 2 and system.k == 2 and system.form is not None

    code, out, _ = run(capsys, "solve", "--config", str(path), "--point", "0.3,0.7")
    assert code == 0
    assert json.loads(out)["x"] == pytest.approx([-0.7, 0.3])

    code, out, _ = run(capsys, "check", "--config", str(path))
    assert code == 0


def test_config_aliases_and_tensor_mode(tmp_path, capsys):
    doc = {
        "name": "nambu-aliased",
        "n": 3,
        "k": 3,
        "mode": "tensor",
        "coefficients": {"1,2,3": "1"},
        "hamiltonians": ["a*u", "v"],
        "params": {"a": 2.0},
        "aliases": ["u", "v", "s"],
        "domain": [[-2, 2], [-2, 2], [-2, 2]],
    }
    path = tmp_path / "aliased.json"
    path.write_text(json.dumps(doc))
    system = load_config(str(path))
    assert system.tensor is not None
    code, out, _ = run(capsys, "simulate", "--config", str(path), "--x0", "1,0,0",
                       "--t-end", "0.5", "--dt", "1e-2")
    assert code == 0


def test_config_errors_carry_pointers(tmp_path, capsys):
    bad = {"name": "x", "n": 2, "k": 2, "mode": "form",
           "coefficients": {"2,1": "1"}, "hamiltonians": ["x1"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert "/coefficients/2,1" in str(err.value)

    bad2 = dict(bad, coefficients={"1,2": "1"}, hamiltonians=["x1 +* x2"])
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps(bad2))
    with pytest.raises(InputError) as err2:
        load_config(str(path2))
    assert "/hamiltonians/0" in str(err2.value)

    code, _, err_text = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert "/coefficients/2,1" in err_text


def test_config_closure_enforced(tmp_path):
    # x3 dx12 on R^3 has d = dx312 != 0 (a top-degree form would always pass)
    doc = {"name": "open", "n": 3, "k": 2, "mode": "form",
           "coefficients": {"1,2": "x3"}, "hamiltonians": ["x2"],
           "domain": [[0.5, 2], [0.5, 2], [0.5, 2]]}
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert "not closed" in str(err.value)


def ghm_process(*argv):
    """``ghm`` in a fresh interpreter, as a user runs it: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(ghm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ghm.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


def test_overflow_at_a_point_is_a_domain_error(tmp_path):
    doc = {"name": "steep", "n": 2, "k": 2, "mode": "form",
           "coefficients": {"1,2": "1 + x1^400"}, "hamiltonians": ["x2"]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    code, err = ghm_process("solve", "--config", str(path), "--point", "999,0")
    assert code == 2
    assert "Traceback" not in err
    assert "floating-point overflow at node x1^400" in err


def test_overflowing_literal_is_a_parse_error(tmp_path):
    doc = {"name": "huge", "n": 2, "k": 2, "mode": "tensor",
           "coefficients": {"1,2": "1e400*x1^2"}, "hamiltonians": ["x2"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, err = ghm_process("simulate", "--config", str(path), "--x0", "1,1",
                            "--t-end", "0.01")
    assert code == 2
    assert "Traceback" not in err
    assert "/coefficients/1,2" in err and "offset 0" in err


def test_inconsistent_form_route_stops_with_exit_3(tmp_path, capsys):
    # dx1^dx2 on R^4 with H = x3: iota_X w never reaches -dx3
    doc = {"name": "inconsistent-form", "n": 4, "k": 2, "mode": "form",
           "coefficients": {"1,2": "1"}, "hamiltonians": ["x3"],
           "domain": [[-5, 5]] * 4, "base_point": [0.0, 0.0, 1.0, 0.0]}
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--config", str(path), "--x0", "0,0,1,0",
                         "--t-end", "0.01")
    assert code == 3
    assert out == ""
    assert "hat-map system inconsistent at (0.0, 0.0, 1.0, 0.0)" in err


# the oscillator's form route; its hat map has a one-dimensional kernel
OSCILLATOR_FORM = {
    "name": "oscillator-form", "n": 6, "k": 3, "mode": "form",
    "coefficients": {"1,2,6": "1", "1,2,5": "-2*q2", "4,5,6": "1"},
    "hamiltonians": ["(p1^2 + p2^2 + q1^2 + q2^2)/2 + lam*q1*xi2", "xi2 - q2^2"],
    "params": {"lam": 0.1}, "domain": [[-10, 10]] * 6,
    "aliases": ["p1", "q1", "xi1", "p2", "q2", "xi2"],
    "base_point": [0.0, 1.0, 1.0, 0.0, 0.0, 2.0],
}


def test_simulate_notes_non_unique_form_dynamics(tmp_path, capsys):
    path = tmp_path / "oscillator_form.json"
    path.write_text(json.dumps(OSCILLATOR_FORM))
    code, out, err = run(capsys, "simulate", "--config", str(path), "--x0", "0.1,1,1,0.2,0.3,2",
                         "--t-end", "0.005")
    assert code == 0
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1 and "1-parameter family" in notes[0]
    assert "note" not in out

    code, out, err = run(capsys, "simulate", "flat_nambu", "--x0", "0.1,0.2,0.3",
                         "--t-end", "0.005")
    assert code == 0
    assert err == ""


def test_simulate_deterministic_stdout_on_both_routes(tmp_path, capsys):
    path = tmp_path / "oscillator_form.json"
    path.write_text(json.dumps(OSCILLATOR_FORM))
    for argv in (["oscillator", "--x0", "0.1,1,1,0.2,0.3,2"],
                 ["--config", str(path), "--x0", "0.1,1,1,0.2,0.3,2"],
                 ["quasisymmetry", "--bvec", "-x2;x1;1 + x3 + 0.3*x1", "--x0", "1,0.5,0.3"]):
        first = run(capsys, "simulate", *argv, "--t-end", "0.05", "--dt", "1e-3")
        second = run(capsys, "simulate", *argv, "--t-end", "0.05", "--dt", "1e-3")
        assert first[0] == 0
        assert first[:2] == second[:2]
