import contextlib
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghm
import ghm.cli
from ghm.cli import load_config, main
from ghm.errors import GhmError, InputError
from oracles import reference_check_reports

# the README's example document
PLANE = {"name": "plane", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1"},
         "hamiltonians": ["(x1^2 + x2^2)/2"], "params": {}, "domain": [[-3, 3], [-3, 3]],
         "aliases": ["q", "p"], "base_point": [0.5, 0.5]}


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


def test_check_runs_only_the_named_identities(tmp_path, capsys, monkeypatch):
    # the FI scan faults at log(x1 + 2) for x1 < -2; the measure scan alone does not
    doc = {"name": "log-nambu", "n": 3, "k": 3, "mode": "tensor",
           "coefficients": {"1,2,3": "log(x1 + 2)"}, "hamiltonians": ["x2", "x3"],
           "domain": [[-3, 3], [-1, 1], [-1, 1]]}
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 2 and "log of nonpositive value" in err
    code, out, err = run(capsys, "check", "--config", str(path), "--identities", "measure")
    assert (code, err) == (1, "")
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["measure", "overall:"]

    def no_fi_scan(*_args):
        raise AssertionError("the FI scan ran")

    monkeypatch.setattr(ghm.cli, "fundamental_identity_scan", no_fi_scan)
    code, out, _ = run(capsys, "check", "oscillator", "--identities", "closure")
    assert code == 0 and "closure(w)" in out


_BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
# a tensor config whose FI scan faults at log(x1 + 2) for x1 < -2
_LOG_NAMBU = {"name": "log-nambu", "n": 3, "k": 3, "mode": "tensor",
              "coefficients": {"1,2,3": "log(x1 + 2)"}, "hamiltonians": ["x2", "x3"],
              "domain": [[-3, 3], [-1, 1], [-1, 1]]}
_A, _B, _C = (round(float(v), 4) for v in np.random.default_rng(21).uniform(0.05, 0.3, 3))
_CHECKED = {
    "oscillator": ["oscillator"], "fourdim": ["fourdim"], "quasisymmetry": ["quasisymmetry"],
    "flat_nambu": ["flat_nambu"], "flat_nambu(4,3)": ["flat_nambu", "--n", "4", "--k", "3"],
    "random quasisymmetry": ["quasisymmetry", f"--psi=x1^2 + x2^2 + {_A}*x1*x3",
                             f"--bvec=-x2 + {_B}*x3;x1;1 + x3 + {_C}*x1^2"],
    **{name: ["--config", str(_BENCH_CONFIGS / f"{name}.json")]
       for name in ("oscillator_form", "fourdim_form", "inconsistent_form")},
    "log-nambu": None,  # written to tmp_path
}


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_check_prints_what_the_former_per_scan_check_printed(name, tmp_path, capsys, monkeypatch):
    # one bundle per check against the former scan-by-scan path: stdout,
    # stderr, exit code and --json bytes, for the default and every subset
    argv = _CHECKED[name]
    if argv is None:
        (tmp_path / "log.json").write_text(json.dumps(_LOG_NAMBU))
        argv = ["--config", str(tmp_path / "log.json")]
    system = ghm.cli._resolve_system(ghm.cli._parser().parse_args(["check", *argv]))
    tokens = [token for token, _, _ in ghm.cli._available_checks(system)]
    subsets = [[]] + [["--identities", ",".join(s)] for r in range(1, len(tokens) + 1)
                      for s in itertools.combinations(tokens, r)]
    report = tmp_path / "report.json"

    def outputs():
        got = []
        for subset in subsets:
            code, out, err = run(capsys, "check", *argv, "--samples", "5", "--seed", "9",
                                 "--json", str(report), *subset)
            got.append((code, out, err, report.read_bytes() if report.exists() else None))
            report.unlink(missing_ok=True)
        return got

    new = outputs()
    codes = {code for code, *_ in new}
    assert 2 in codes if name == "log-nambu" else codes <= {0, 1}  # the FI scan faults
    monkeypatch.setattr(ghm.cli, "_check_reports", reference_check_reports)
    assert new == outputs()


@pytest.mark.parametrize("name, tokens, bundles", [
    ("oscillator", ("closure", "jacobi", "fi", "measure"), 1),
    ("quasisymmetry", ("closure", "fi", "measure"), 1),
    ("quasisymmetry", ("fi",), 1),
    ("quasisymmetry", ("closure",), 0),  # d of a 3-form on R^3 is empty
    ("flat_nambu", ("closure", "jacobi", "fi", "measure"), 1),
])
def test_a_check_compiles_its_scans_as_one_bundle(name, tokens, bundles, monkeypatch):
    from ghm import expr as ex
    from ghm import identities
    from ghm.dynamics import sample_box
    from ghm.systems import build

    system = build(name)
    points = sample_box(np.random.default_rng(2), system.domain, 3)
    scans = [build_scan() for token, _, build_scan in ghm.cli._available_checks(system)
             if token in tokens]
    generate, generated = ex._generate, []

    def counted(exprs):
        generated.append(exprs)
        return generate(exprs)

    monkeypatch.setattr(ex, "_generate", counted)
    reports = ghm.cli._check_reports(system, points, tokens)
    assert len(generated) == bundles
    if bundles:  # every selected scan's expressions, in report order
        assert generated[0] == tuple(e for scan in scans for e in scan.exprs)
    monkeypatch.undo()
    assert [rep for _, _, rep in reports] == [identities.run_scans([scan], points)[0]
                                              for scan in scans]


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


def ghm_fresh(*argv):
    """``ghm`` in a fresh interpreter, as a user runs it: (exit code, stdout,
    stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(ghm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ghm.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def ghm_process(*argv):
    """(exit code, stderr) of ``ghm`` in a fresh interpreter."""
    code, _, err = ghm_fresh(*argv)
    return code, err


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


def test_a_domain_fault_in_the_independence_check_names_check_and_point(tmp_path, capsys):
    # no base_point: the check runs at the centre of the box, where
    # d log(x2) = dx2/x2 divides by zero; the config is usable away from x2 = 0
    doc = {"name": "logh", "n": 2, "k": 2, "mode": "tensor", "coefficients": {"1,2": "1"},
           "hamiltonians": ["log(x2)"], "domain": [[-1, 1], [-1, 1]]}
    path = tmp_path / "logh.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_config(str(path))
    code, out, err = run(capsys, "simulate", "--config", str(path), "--x0", "0.5,0.5",
                         "--t-end", "1")
    assert (code, out) == (2, "")
    assert err == ("error: system 'logh': Hamiltonian independence check failed at the "
                   "base point (0.0, 0.0): division by zero at node 1.0/x2\n")


def test_a_parameter_that_divides_by_zero_is_the_literal_zero(tmp_path, capsys):
    # a parameter is read as its value, so 0/a at a = 0 is the literal 0/0,
    # which faults at the base point
    results = []
    for coefficient, params in (("1 + 0/a", {"a": 0}), ("1 + 0/0", {})):
        doc = {"name": "zero", "n": 2, "k": 2, "mode": "form",
               "coefficients": {"1,2": coefficient}, "hamiltonians": ["x1"], "params": params,
               "domain": [[-1, 1], [-1, 1]], "base_point": [0.5, 0.5]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        results.append(run(capsys, "solve", "--config", str(path), "--point", "0.5,0.5"))
    code, out, err = results[0]
    assert (code, out) == (2, "") and "division by zero at node 0.0/0.0" in err
    assert results[1] == results[0]


def test_a_domain_fault_in_the_closure_check_names_check_and_sample(tmp_path, capsys):
    # d(sqrt(x3) dx1^dx2) holds 1/sqrt(x3), which faults at the first domain
    # sample with x3 < 0; the base point itself is fine
    doc = {"name": "sqrtw", "n": 3, "k": 2, "mode": "form", "coefficients": {"1,2": "sqrt(x3)"},
           "hamiltonians": ["x1"], "domain": [[-1, 1]] * 3, "base_point": [0.5, 0.5, 0.5]}
    path = tmp_path / "sqrtw.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: system 'sqrtw': evaluation failed at the domain sample "
                   "(0.2739233746429086, -0.4604265724722594, -0.9180529521276106): "
                   "sqrt of negative value at node sqrt(x3)\n")


@pytest.mark.parametrize("coefficient, hamiltonian, base_point, fault", [
    # 0/0 is undefined everywhere; with k = n there is no dw to scan
    ("1 + 0/0", "x1", None,
     "(0.2739233746429086, -0.4604265724722594): division by zero at node 0.0/0.0"),
    # log(x1) is undefined at every sample with x1 <= 0, but not at the base point
    ("1 + log(x1)", "x2", [0.5, 0],
     "(-0.9180529521276106, -0.9669447289429418): log of nonpositive value at node log(x1)"),
])
def test_a_form_undefined_at_a_domain_sample_exits_2(tmp_path, capsys, coefficient,
                                                     hamiltonian, base_point, fault):
    doc = {"name": "undef", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": coefficient},
           "hamiltonians": [hamiltonian], "domain": [[-1, 1], [-1, 1]]}
    if base_point is not None:
        doc["base_point"] = base_point
    path = tmp_path / "undef.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: system 'undef': evaluation failed at the domain sample {fault}\n"


def test_a_form_that_faults_only_at_the_base_point_still_loads(tmp_path, capsys):
    # the base point (0, 0, 0) is a pole of 1/x1, which no domain sample hits
    doc = {"name": "inv", "n": 3, "k": 2, "mode": "form", "coefficients": {"1,2": "1/x1"},
           "hamiltonians": ["x3"], "domain": [[-1, 1]] * 3}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(doc))
    assert load_config(str(path)).base_point is None
    code, out, err = run(capsys, "check", "--config", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "overall: PASS"


def test_config_k2_tensor_mode_checks_jacobi(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(dict(PLANE, mode="tensor")))
    system = load_config(str(path))
    assert system.reduced_tensor is system.tensor
    code, out, _ = run(capsys, "check", "--config", str(path))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[2:-1]] == ["jacobi", "measure"]


@pytest.mark.parametrize("member, value, pointer", [
    ("domain", [[-3], [-3, 3]], "/domain/0"),
    ("domain", [["a", 3], [-3, 3]], "/domain/0"),
    ("domain", ["ab", [-3, 3]], "/domain/0"),
    ("domain", [[-3, 3], [float("-inf"), 3]], "/domain/1"),
    ("domain", [[float("nan"), 3], [-3, 3]], "/domain/0"),
    ("domain", [[3, -3], [-3, 3]], "/domain/0"),
    ("base_point", ["a", 1], "/base_point"),
    ("base_point", [0.5], "/base_point"),
    ("base_point", [float("nan"), 0.5], "/base_point"),
    ("params", {"a": "zz"}, "/params/a"),
    ("params", {"a": [1]}, "/params/a"),
    ("params", {"a": 10 ** 400}, "/params/a"),
    ("coefficients", {"1,2": 1}, "/coefficients/1,2"),
    ("hamiltonians", [3], "/hamiltonians/0"),
    # member names are escaped in pointers: "~" as "~0", "/" as "~1"
    ("params", {"a/b": "zz"}, "/params/a~1b"),
    ("params", {"a~b": "zz"}, "/params/a~0b"),
    ("params", {"~/": "zz"}, "/params/~0~1"),
    ("coefficients", {"1/2": "1"}, "/coefficients/1~12"),
])
def test_malformed_config_member_is_an_input_error(tmp_path, member, value, pointer):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(dict(PLANE, **{member: value})))
    code, err = ghm_process("check", "--config", str(path))
    assert code == 2
    assert "Traceback" not in err
    assert f"config error at {pointer}: " in err


@pytest.mark.parametrize("members, pointer", [
    ({"aliases": ["q", "q"]}, "/aliases/1"),  # q would mean x2 everywhere
    ({"aliases": ["a", "p"], "params": {"a": 3}}, "/aliases/0"),  # a*p would read x1*x2
    ({"aliases": ["x2", "x1"]}, "/aliases/0"),  # would swap the axes
    ({"aliases": ["q", "sqrt"]}, "/aliases/1"),
])
def test_config_alias_that_would_rebind_a_name_is_an_input_error(tmp_path, members, pointer):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(dict(PLANE, **members)))
    code, out, err = ghm_fresh("solve", "--config", str(path), "--point", "1,2")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert f"config error at {pointer}: alias " in err


EXPRESSIONS = ["1", "x1", "x2", "q*p", "(x1^2 + x2^2)/2", "a*x1", "sqrt(x1)", "1/x1",
               "log(x1 - 10)", "x1 +* x2", "", "x3", "1e400", "zz"]
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.just(10 ** 400), st.floats(),
              st.sampled_from(EXPRESSIONS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["1,2", "2,1", "1", "a", "", "1,2,3"]), inner,
                        max_size=3)),
    max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_loader_raises_only_ghm_errors(tmp_path_factory, data):
    doc = json.loads(json.dumps(PLANE))
    for _ in range(data.draw(st.integers(1, 3))):
        member = data.draw(st.sampled_from(sorted(PLANE)))
        action = data.draw(st.sampled_from(["delete", "replace", "element"]))
        container = doc.get(member)
        if action == "delete":
            doc.pop(member, None)
        elif action == "element" and isinstance(container, (list, dict)) and container:
            slot = data.draw(st.sampled_from(
                sorted(container) if isinstance(container, dict) else range(len(container))))
            container[slot] = data.draw(_json_values)
        else:
            doc[member] = data.draw(_json_values)
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        load_config(str(path))
    except GhmError:
        pass


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


def test_a_form_route_solve_not_finite_at_x0_exits_2(tmp_path, capsys):
    # |sigma| ~ 1e170 on a hat map with a kernel: H is finite on the box,
    # but the residual of x0's solve for the kernel note overflows
    doc = {"name": "big", "n": 3, "k": 2, "mode": "form",
           "coefficients": {"1,2": "1", "1,3": "2", "2,3": "3"},
           "hamiltonians": ["1e170*(x1 + 0.3*x2 + x3)"],
           "domain": [[-10, 10]] * 3, "base_point": [0.5, 0.5, 0.5]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "simulate", "--config", str(path), "--x0=0.3,0.7,1.1",
               "--t-end", "0.002") == (2, "", "error: floating-point overflow in the hat-map "
                                       "solve at (0.3, 0.7, 1.1): residual inf\n")


def test_a_form_route_simulate_factors_each_hat_map_once(tmp_path, capsys, monkeypatch):
    # the kernel note reads the trajectory's own solve at x0, so no hat map
    # along the orbit, x0's included, is factored twice
    path = tmp_path / "oscillator_form.json"
    path.write_text(json.dumps(OSCILLATOR_FORM))
    factored, svd = [], np.linalg.svd

    def counted(A, *args, **kwargs):
        factored.append(np.asarray(A).tobytes())
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, out, err = run(capsys, "simulate", "--config", str(path), "--x0", "0.1,1,1,0.2,0.3,2",
                         "--t-end", "0.005")
    assert code == 0 and "1-parameter family" in err
    # x0, then per step the three later stages and the accepted state
    assert len(factored) == len(set(factored)) == 1 + 4 * 5


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


def test_the_cli_comparison_finds_no_difference_between_a_tree_and_itself(tmp_path):
    # a handful of compare_cli's calls, each subcommand once, a --json file
    # and a config that validate rejects, run twice on this checkout
    import compare_cli

    tree = Path(compare_cli.__file__).resolve().parents[1]
    argvs = compare_cli.calls(compare_cli.write_configs(tmp_path))
    picks = ("{json}", "flatten", "simulate", "solve", "reprob.json")
    argvs = [next(argv for argv in argvs if pick in " ".join(argv)) for pick in picks]
    assert [diff for _, diff in compare_cli.compare(tree, tree, argvs, tmp_path)] == [[]] * 5
    assert compare_cli.run(tree, argvs[0], tmp_path)[3].startswith(b"{")
    assert compare_cli.run(tree, argvs[-1], tmp_path)[0] == 2


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width, here and in the child
    calls = [
        ["simulate", "oscillator", "--x0", "0.1,1,1,0.2,0.3,2", "--t-end", "0.003"],
        ["check", "flat_nambu", "--samples", "5"],
        ["simulate", "oscillator", "--no-such-flag"],
        ["solve", "fourdim", "--point", "0.1,0.2,0.3,1.5"],
        ["--help"],
        ["simulate", "--help"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == ghm_fresh(*argv)
    assert ghm_fresh("simulate", "oscillator", "--no-such-flag")[0] == 2


@pytest.mark.parametrize("coefficient, x0, dt, message", [
    # X^1 = -sqrt(x1): the second RK stage of the first step goes below zero
    ("sqrt(x1)", "1e-9,0", "1e-3", "sqrt of negative value at node sqrt(x1)"),
    # X = (1, 0) reaches x1 = 0 exactly after two steps, where the field is
    # defined but its divergence, in the diagnostics row, divides 0 by 0
    ("1 + x2*x1*sqrt(x1^2)", "-0.25,0", "0.125", "division by zero at node"),
    # X^1 = -sqrt(x2) faults at x0, where H = -x2 and div = 0 do not
    ("sqrt(x2)", "0,-1", "1e-3", "sqrt of negative value at node sqrt(x2)"),
])
def test_domain_fault_while_integrating_exits_3(tmp_path, coefficient, x0, dt, message):
    doc = {"name": "fault", "n": 2, "k": 2, "mode": "tensor",
           "coefficients": {"1,2": coefficient},
           "hamiltonians": ["-x2" if coefficient.startswith("sqrt") else "x2"]}
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(doc))
    code, out, err = ghm_fresh("simulate", "--config", str(path), f"--x0={x0}",
                               "--t-end", "1", "--dt", dt)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    # only the div case faults in the diagnostics row; the others in the field
    failed = "diagnostics row" if coefficient.startswith("1 + ") else "vector-field"
    assert err.startswith(f"integration failure: {failed} evaluation failed: ")
    assert message in err


@pytest.mark.parametrize("argv, flag", [
    (["check", "oscillator", "--samples", "0"], "--samples"),
    (["check", "oscillator", "--samples", "-1"], "--samples"),
    (["check", "oscillator", "--tol", "nan"], "--tol"),
    (["check", "oscillator", "--tol=-1e-9"], "--tol"),
    (["check", "oscillator", "--seed", "-1"], "--seed"),
    (["check", "oscillator", "--lam", "inf"], "--lam"),
    (["flatten", "moser1", "--t", "nan"], "--t"),
    (["flatten", "moser1", "--f", "nan"], "--f"),
    (["flatten", "moser1", "--f", "inf"], "--f"),
    (["flatten", "moser2", "--g", "0"], "--g"),
    (["flatten", "moser2", "--samples", "0"], "--samples"),
    (["simulate", "oscillator", "--x0", "0,1,1,0,0,2", "--t-end", "1", "--dt", "nan"], "--dt"),
    (["simulate", "oscillator", "--x0", "0,1,1,0,0,2", "--t-end", "inf"], "--t-end"),
    (["simulate", "oscillator", "--x0", "0,1,1,0,0,2", "--t-end", "1", "--method", "rkf45",
      "--reltol", "0"], "--reltol"),
    (["simulate", "oscillator", "--x0", "0,1,1,0,0,nan", "--t-end", "1"], "--x0"),
    (["solve", "oscillator", "--point", "inf,1,1,0,0,2"], "--point"),
])
def test_a_bad_numeric_flag_is_an_input_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be ")


def test_a_flow_time_beyond_the_step_count_is_an_input_error(capsys):
    # |t| * FLOW_STEPS_PER_UNIT overflows to inf, which no step count holds
    code, out, err = run(capsys, "flatten", "moser1", "--numeric", "--t", "1e308",
                         "--samples", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: flow time 1e+308 needs more RK4 steps")


def test_a_fault_in_the_numeric_flow_is_an_integration_failure(capsys):
    # the RK4 flow to t = -1 leaves x3 + x4 >= 0 on the way: a runtime
    # failure (exit 3) that names the sample point and the flow time reached;
    # the closed-form map at the same t has no fault
    code, out, err = run(capsys, "flatten", "moser1", "--t", "-1", "--numeric",
                         "--samples", "5")
    assert (code, out) == (3, "")
    assert err == ("integration failure: the numeric flow of the sample point (0.5478467492858172, "
                   "-0.9208531449445188, 0.41062851462772565, 0.34462461592702853) failed at "
                   "flow time -0.867188: sqrt of negative value at node sqrt(x3 + x4)\n")
    code, out, err = run(capsys, "flatten", "moser1", "--t", "-1", "--samples", "5")
    assert (code, err) == (0, "")


def test_a_run_beyond_the_step_count_is_an_input_error(capsys):
    code, out, err = run(capsys, "simulate", "oscillator", "--x0", "0,1,1,0,0,2",
                         "--t-end", "1e308", "--dt", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: t_end 1e+308 at dt 1 needs more RK4 steps")


def test_an_overflowed_solve_prints_nothing(capsys):
    code, out, err = run(capsys, "solve", "oscillator", "--point", "1e308,1,1,0,0,2")
    assert (code, out, err) == (2, "", "error: non-finite value at node 2.0*x1\n")


@pytest.mark.parametrize("argv", [["moser1", "--f", "2", "--t", "1"], ["moser2"]])
def test_numeric_flatten_residual_is_that_of_the_discrete_flow(capsys, argv):
    code, out, _ = run(capsys, "flatten", *argv, "--numeric")
    assert code == 0
    assert float(out.split("max pullback residual = ")[1]) <= 1e-11


def test_moser_examples_reject_a_non_finite_parameter():
    for build_args in ({"f": float("nan")}, {"f": float("inf")}, {"f": -1.0}):
        with pytest.raises(InputError):
            ghm.systems.moser_example_1(**build_args)
    for build_args in ({"f": float("nan")}, {"g": float("nan")}, {"g": float("inf")}):
        with pytest.raises(InputError):
            ghm.systems.moser_example_2(**build_args)


# Each flag draws from valid values, values its rule rejects and text that
# is no number.  Every combination stays small: at most 3 samples, a few RK
# steps, and a t-end/dt ratio of at most 10 when both are valid and small.
_CONFIG = str(Path(__file__).resolve().parents[1] / "bench" / "configs" / "oscillator_form.json")
_SYSTEMS = [  # (system arguments, a point inside its domain)
    ([], "0"), (["nope"], "0"), (["oscillator"], "0,1,1,0,0,2"),
    (["fourdim"], "0.1,0.2,0.3,1.5"), (["quasisymmetry"], "1.2,0.9,0.4"),
    (["flat_nambu"], "0.1,0.2,0.3"), (["--config", _CONFIG], "0,1,1,0,0,2"),
]
_FLAG_VALUES = {
    "--samples": ["1", "3", "0", "-1", "x"],
    "--seed": ["0", "7", "-1", "x"],
    "--tol": ["1e-9", "0", "1e308", "-1", "nan", "inf", "x"],
    "--lam": ["0.3", "-2", "1e200", "nan", "-inf", "x"],
    "--n": ["3", "4", "2", "0", "13", "x"],
    "--k": ["2", "3", "5", "-1", "x"],
    "--H": ["x1", "x3", "x1*x2", "x1*1e200*1e200", "(", ""],
    "--identities": ["closure", "jacobi,fi", "measure", "nope", ""],
    "--t-end": ["0.01", "0", "-1", "1e308", "nan", "inf", "x"],
    "--dt": ["1e-3", "0.005", "1e308", "0", "-0.1", "nan", "inf", "x"],
    "--method": ["rk4", "rkf45", "euler"],
    "--reltol": ["1e-9", "1", "0", "-1", "nan", "inf", "x"],
    "--f": ["2", "0.5", "1e300", "0", "-1", "nan", "inf", "x"],
    "--g": ["1", "3", "1e300", "0", "nan", "-inf", "x"],
    "--t": ["1", "0.5", "0", "-0.7", "1e308", "nan", "inf", "x"],
}
_BAD_POINTS = ["inf,1,1,0,0,2", "0.1,nan,0.3", "1,x", ""]
_COMMAND_FLAGS = {
    "check": ["--samples", "--seed", "--tol", "--lam", "--n", "--k", "--H", "--identities"],
    "solve": ["--tol", "--lam", "--n", "--k", "--H"],
    "simulate": ["--t-end", "--dt", "--method", "--reltol", "--lam", "--n", "--k"],
    "flatten": ["--f", "--g", "--t", "--samples", "--seed", "--numeric"],
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(data):
    # `ghm` in-process on fuzzed argv: every call ends in exit 0, 1, 2 or 3,
    # exit 1 ("identity check failed") comes only from check, no exception
    # other than argparse's exit escapes main, and no value written to
    # stdout is an inf or NaN
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    if command == "flatten":
        argv = [command, data.draw(st.sampled_from(["moser1", "moser2"])), "--samples=1"]
    else:
        system, point = data.draw(st.sampled_from(_SYSTEMS))
        argv = [command, *system]
        point = data.draw(st.sampled_from([point, point, point] + _BAD_POINTS))
        if command == "solve":
            argv.append(f"--point={point}")
        elif command == "simulate":
            argv += [f"--x0={point}", "--t-end=0.01"]
    for flag in data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True,
                                   max_size=4)):
        if flag == "--numeric":
            argv.append(flag)
        else:
            argv.append(f"{flag}={data.draw(st.sampled_from(_FLAG_VALUES[flag]))}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert code != 1 or command == "check", (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert re.search(r"\b(?:nan|inf)\b", out.getvalue(), re.IGNORECASE) is None, \
        (argv, out.getvalue())


@pytest.mark.parametrize("point", ["0,0,0,0,1e308,0", "0,0,0,0,1e200,0"])
def test_an_overflowed_hatmap_exits_2_with_one_error_line(point):
    # at 1e308 the hat map holds inf, which LAPACK used to reject with DLASCL
    # lines and a traceback (exit 1), and which its bundle now names; at
    # 1e200 |sigma| overflows, which numpy used to report with a RuntimeWarning
    code, out, err = ghm_fresh("solve", "oscillator", f"--point={point}")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: non-finite value at node 2.0*x5" if "1e308" in point
                          else "error: floating-point overflow in the hat-map solve at (0.0, ")


def test_an_overflowed_tensor_config_check_exits_2_naming_the_node(tmp_path):
    # the coefficient overflows to inf wherever x1 != 0 before it is scaled
    # back; the scans used to report FI nan and measure inf with numpy
    # RuntimeWarnings and exit 1, as if an identity failed
    doc = {"name": "overflow", "n": 3, "k": 3, "mode": "tensor",
           "coefficients": {"1,2,3": "1 + x1^2*1e200*1e200*1e-300*1e-100"},
           "hamiltonians": ["x2", "x3"], "domain": [[-3, 3], [-1, 1], [-1, 1]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert ghm_fresh("check", "--config", str(path)) == \
        (2, "", "error: non-finite value at node x1^2*1e+200*1e+200\n")


def test_a_hamiltonian_that_overflows_on_its_own_box_exits_2(tmp_path):
    # the overflow cancels to NaN wherever x1 != 0, but J is constant, so no
    # scan reads H, and x1 = 0 at the base point; validate reads H at its
    # samples, so check and simulate stop with one line and no warning
    doc = {"name": "reprob", "n": 3, "k": 3, "mode": "tensor", "coefficients": {"1,2,3": "1"},
           "hamiltonians": ["x1^2*1e200*1e200 - x1^2*1e200*1e200 + x2", "x3"],
           "domain": [[-3, 3], [-1, 1], [-1, 1]]}
    path = tmp_path / "reprob.json"
    path.write_text(json.dumps(doc))
    error = ("error: system 'reprob': evaluation failed at the domain sample (0.8217701239287258, "
             "-0.4604265724722594, -0.9180529521276106): non-finite value at node "
             "x1^2*1e+200*1e+200\n")
    assert ghm_fresh("check", "--config", str(path)) == (2, "", error)
    assert ghm_fresh("simulate", "--config", str(path), "--x0", "1,0.5,0.5", "--t-end", "0.01",
                     "--dt", "0.001") == (2, "", error)


def test_a_non_finite_rk4_state_names_the_node_of_the_field(tmp_path):
    # the RK4 loop's stages carry no guard, so the state goes NaN; the
    # compiled field at the last accepted state names the node
    doc = {"name": "nanfield", "n": 3, "k": 3, "mode": "tensor",
           "coefficients": {"1,2,3": "1 + x1^2*1e200*1e200 - x1^2*1e200*1e200"},
           "hamiltonians": ["x2", "x3"], "domain": [[-3, 3], [-1, 1], [-1, 1]]}
    path = tmp_path / "nanfield.json"
    path.write_text(json.dumps(doc))
    assert ghm_fresh("simulate", "--config", str(path), "--x0", "1,0.5,0.5", "--t-end", "0.01",
                     "--dt", "0.001") == (3, "", "integration failure: vector-field evaluation "
                                          "failed: non-finite value at node x1^2*1e+200*1e+200\n")


def test_a_constant_product_that_overflows_is_named_as_written():
    # 1e200*1e200 is kept as the product, not folded to a constant inf that
    # the text never wrote
    assert ghm_fresh("check", "fourdim", "--H=x1*1e200*1e200") == (
        2, "", "error: system 'fourdim': Hamiltonian independence check failed at the base "
               "point (1.0, 1.0, 1.0, 2.0): non-finite value at node 1e+200*1e+200\n")


def test_a_hamiltonian_ending_in_whitespace_reads_as_the_text_without_it():
    code, out, err = ghm_fresh("check", "fourdim", "--H=x1*x2 ")
    assert (code, out, err) == ghm_fresh("check", "fourdim", "--H=x1*x2") and out


def test_a_form_that_overflows_on_its_own_box_fails_validate_with_exit_2(tmp_path, capfd):
    # w = (1 + x1^3) dx1^dx2 overflows at the domain samples of |x1| ~ 1e200
    doc = {"name": "cube", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1 + x1*x1*x1"},
           "hamiltonians": ["x2"], "domain": [[-1e201, 1e201], [-1, 1]], "base_point": [1, 0]}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--x0=1e200,0", "--t-end", "0.01"])
    assert (code, capfd.readouterr()) == (2, ("", "error: system 'cube': evaluation failed at "
                                              "the domain sample (2.7392337464290876e+200, "
                                              "-0.4604265724722594): non-finite value at node "
                                              "x1*x1\n"))


def test_a_non_finite_hatmap_entry_while_integrating_exits_3(tmp_path, capfd):
    # w = dx1^dx2, so x1 falls at unit speed while only b = -dH grows: H is
    # finite at every domain sample and dH at x0, but the first stage past
    # x1 = -1.7977 overflows dH, and the hat map's bundle names the node
    doc = {"name": "steep", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1"},
           "hamiltonians": ["5e307*x1*x1 + x2"], "domain": [[-1.85, 1.85], [-1, 1]],
           "base_point": [1, 0.5]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--x0=-1.7975,0", "--t-end", "0.01"])
    assert (code, capfd.readouterr()) == (3, ("", "integration failure: vector-field evaluation "
                                              "failed: non-finite value at node "
                                              "5e+307*x1 + 5e+307*x1\n"))


def test_a_non_finite_hatmap_entry_at_x0_exits_2(tmp_path, capfd):
    # at (1e200, 0) only A is inf (w is finite off the line x2 = 0, so at
    # every domain sample); x0's kernel solve, before the loop, names the node
    doc = {"name": "cube", "n": 2, "k": 2, "mode": "form",
           "coefficients": {"1,2": "1 + x1/(x2*x2 + 1e-109)"}, "hamiltonians": ["x2"],
           "domain": [[-1e201, 1e201], [-1, 1]], "base_point": [1, 0.5]}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--x0=1e200,0", "--t-end", "0.01"])
    assert (code, capfd.readouterr()) == (2, ("", "error: non-finite value at node "
                                              "x1/(x2*x2 + 1e-109)\n"))


def test_an_overflowed_form_route_divergence_exits_3(tmp_path, capfd):
    # at x1 = 1e-160 the hat map holds 1e160, whose square in the exact
    # divergence overflows, which used to write nan in every div cell
    doc = {"name": "inv", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1/x1"},
           "hamiltonians": ["x2"], "domain": [[1e-200, 1], [-1, 1]], "base_point": [0.5, 0]}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--x0=1e-160,0", "--t-end", "0.002"])
    # its partial -1/x1^2 is -inf there, which the divergence's bundle names
    assert (code, capfd.readouterr()) == (3, ("", "integration failure: vector-field evaluation "
                                              "failed: non-finite value at node -1.0/x1^2\n"))


@pytest.mark.parametrize("method, message", [
    # the state goes NaN, and the compiled field at the last accepted one,
    # x0, names the node
    ("rk4", "vector-field evaluation failed: non-finite value at node x1^2*1e+200*1e+200"),
    # a NaN error estimate used to grow the step to t_end - t and loop for ever
    ("rkf45", "the RKF45 error estimate is not finite at t=0"),
])
def test_a_non_finite_field_while_integrating_exits_3(tmp_path, capsys, method, message):
    # 1e400 - 1e400 is NaN in the field at every state with x1 != 0
    doc = {"name": "nanfield", "n": 3, "k": 3, "mode": "tensor",
           "coefficients": {"1,2,3": "1 + x1^2*1e200*1e200 - x1^2*1e200*1e200"},
           "hamiltonians": ["x2", "x3"], "domain": [[-3, 3], [-1, 1], [-1, 1]]}
    path = tmp_path / "nanfield.json"
    path.write_text(json.dumps(doc))

    def hang(*_):
        raise AssertionError("simulate did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        result = run(capsys, "simulate", "--config", str(path), "--x0", "1,0.5,0.5",
                     "--t-end", "0.01", "--dt", "0.001", "--method", method)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result == (3, "", f"integration failure: {message}\n")


def test_a_coefficient_deeper_than_the_limit_exits_2(tmp_path, capfd):
    # a sum of 1,500 terms used to raise RecursionError while binding
    doc = {"name": "deep", "n": 2, "k": 2, "mode": "tensor",
           "coefficients": {"1,2": " + ".join(["x1"] * 1500)}, "hamiltonians": ["x2"]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--config", str(path)])
    assert (code, capfd.readouterr()) == (2, ("", "error: config error at /coefficients/1,2: "
                                              "expression is 1500 levels deep, more than 150 "
                                              "(offset 0)\n"))


def test_a_config_at_the_depth_limit_runs(tmp_path, capsys):
    # the deepest walks the package takes: the second derivatives of a
    # Hamiltonian whose quotients nest to the limit, on the form route
    depth = ghm.expr.MAX_EXPR_DEPTH
    chain = "/".join("x1" if i % 2 == 0 else "x2" for i in range(depth))
    doc = {"name": "deep", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1"},
           "hamiltonians": [chain], "domain": [[0.5, 1.5], [0.5, 1.5]], "base_point": [1, 1]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--x0=1,1", "--t-end", "0.002"]) == 0
    assert main(["check", "--config", str(path), "--samples", "3"]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["check", "oscillator", "--identities", ","], "--identities names no identity"),
    (["check", "oscillator", "--identities", ""], "--identities names no identity"),
    (["check", "fourdim", "--lam", "3", "--n", "9", "--psi", "x1"],
     "--lam applies only to oscillator, not to fourdim"),
    (["check", "oscillator", "--H", "x1"], "--H applies only to fourdim"),
    (["check", "flat_nambu", "--psi", "x1"], "--psi applies only to quasisymmetry"),
    (["check", "fourdim", "--bvec=-x2;x1;1"], "--bvec applies only to quasisymmetry"),
    (["solve", "oscillator", "--n", "3", "--point", "0,1,1,0,0,2"],
     "--n applies only to flat_nambu"),
    (["simulate", "quasisymmetry", "--k", "3", "--x0", "1.2,0.9,0.4", "--t-end", "0.01"],
     "--k applies only to flat_nambu"),
    (["check", "oscillator", "--config", _CONFIG], "--config takes no system name"),
    (["check", "--config", _CONFIG, "--lam", "0.2"], "--config takes no system name"),
    (["solve", "--config", _CONFIG, "--H", "x1", "--point", "0,1,1,0,0,2"],
     "--config takes no system name"),
    (["check", "fourdim", "--H", ""], "unexpected end of input"),
    (["check", "quasisymmetry", "--psi", ""], "unexpected end of input"),
    (["flatten", "moser1", "--g", "5"], "--g applies only to moser2, not to moser1"),
    (["simulate", "flat_nambu", "--x0=0,0,0", "--t-end", "0.002", "--tol", "123"],
     "ghm: error: unrecognized arguments: --tol 123"),
])
def test_system_input_that_would_be_dropped_is_an_input_error(capsys, argv, message):
    # ghm's one error line, or argparse's usage and then its error line for
    # a flag that the command does not take
    try:
        code, first = main(argv), "error: "
    except SystemExit as exc:
        code, first = exc.code, "usage: ghm "
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(first) and message in err
