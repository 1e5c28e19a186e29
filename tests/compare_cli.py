"""Compare the ``ghm`` command line of two source trees, call by call.

    python tests/compare_cli.py OLD_TREE NEW_TREE

Each tree is a checkout whose package sits in ``src/ghm``.  Every call of
``calls()`` runs as ``python -m ghm.cli ...`` in a fresh interpreter of each
tree, and one line per call reports whether the exit code, stdout (by
sha256), stderr and the ``--json`` file, if the call writes one, match.  The
inputs are this checkout's ``bench/configs`` and the configs of ``CONFIGS``,
written once to a scratch directory that both trees read.  Exit status 0
means every call matched, 1 that one or more differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
BENCH_CONFIGS = {"oscillator_form": "0.1,1,1,0.2,0.3,2", "fourdim_form": "1,1,1,2",
                 "inconsistent_form": "0,0,1,0"}  # config -> an x0 in its box
BUILTINS = {"oscillator": "0.1,1,1,0.2,0.3,2", "fourdim": "1,1,1,2",
            "quasisymmetry": "1,0.5,0.3", "flat_nambu": "0.1,0.2,0.3"}

# inputs whose output ``validate`` or an integration fault decides
_BOX = [[-3, 3], [-1, 1], [-1, 1]]
CONFIGS = {
    "reprob": {"name": "reprob", "n": 3, "k": 3, "mode": "tensor",
               "coefficients": {"1,2,3": "1"},
               "hamiltonians": ["x1^2*1e200*1e200 - x1^2*1e200*1e200 + x2", "x3"],
               "domain": _BOX},
    "nanfield": {"name": "nanfield", "n": 3, "k": 3, "mode": "tensor",
                 "coefficients": {"1,2,3": "1 + x1^2*1e200*1e200 - x1^2*1e200*1e200"},
                 "hamiltonians": ["x2", "x3"], "domain": _BOX},
    "overflow": {"name": "overflow", "n": 3, "k": 3, "mode": "tensor",
                 "coefficients": {"1,2,3": "1 + x1^2*1e200*1e200*1e-300*1e-100"},
                 "hamiltonians": ["x2", "x3"], "domain": _BOX},
    "sqrtw": {"name": "sqrtw", "n": 3, "k": 2, "mode": "form",
              "coefficients": {"1,2": "sqrt(x3)"}, "hamiltonians": ["x1"],
              "domain": [[-1, 1]] * 3, "base_point": [0.5, 0.5, 0.5]},
    "undef": {"name": "undef", "n": 2, "k": 2, "mode": "form",
              "coefficients": {"1,2": "1 + 0/0"}, "hamiltonians": ["x1"],
              "domain": [[-1, 1], [-1, 1]]},
    "logw": {"name": "undef", "n": 2, "k": 2, "mode": "form",
             "coefficients": {"1,2": "1 + log(x1)"}, "hamiltonians": ["x2"],
             "domain": [[-1, 1], [-1, 1]], "base_point": [0.5, 0]},
    "inv": {"name": "inv", "n": 3, "k": 2, "mode": "form", "coefficients": {"1,2": "1/x1"},
            "hamiltonians": ["x3"], "domain": [[-1, 1]] * 3},
    "cube": {"name": "cube", "n": 2, "k": 2, "mode": "form",
             "coefficients": {"1,2": "1 + x1*x1*x1"}, "hamiltonians": ["x2"],
             "domain": [[-1e201, 1e201], [-1, 1]], "base_point": [1, 0]},
    "cubeh": {"name": "cube", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1"},
              "hamiltonians": ["x1*x1*x1"], "domain": [[-1e201, 1e201], [-1, 1]],
              "base_point": [1, 0.5]},
    "pole": {"name": "cube", "n": 2, "k": 2, "mode": "form",
             "coefficients": {"1,2": "1 + x1/(x2*x2 + 1e-109)"}, "hamiltonians": ["x2"],
             "domain": [[-1e201, 1e201], [-1, 1]], "base_point": [1, 0.5]},
    "steep": {"name": "steep", "n": 2, "k": 2, "mode": "form", "coefficients": {"1,2": "1"},
              "hamiltonians": ["5e307*x1*x1 + x2"], "domain": [[-1.85, 1.85], [-1, 1]],
              "base_point": [1, 0.5]},
    "big": {"name": "big", "n": 3, "k": 2, "mode": "form",
            "coefficients": {"1,2": "1", "1,3": "2", "2,3": "3"},
            "hamiltonians": ["1e170*(x1 + 0.3*x2 + x3)"],
            "domain": [[-1e300, 1e300]] * 3, "base_point": [0.5, 0.5, 0.5]},
    "big10": {"name": "big", "n": 3, "k": 2, "mode": "form",
              "coefficients": {"1,2": "1", "1,3": "2", "2,3": "3"},
              "hamiltonians": ["1e170*(x1 + 0.3*x2 + x3)"],
              "domain": [[-10, 10]] * 3, "base_point": [0.5, 0.5, 0.5]},
}


def calls(configs: Path) -> list[list[str]]:
    """The compared calls; a config is read from ``configs``."""
    def config(name):
        return ["--config", str(configs / f"{name}.json")]

    variants = [[name] for name in BUILTINS] + [
        ["oscillator", "--lam", "0.3"], ["fourdim", "--H", "x1*x2"],
        ["quasisymmetry", "--bvec", "-x2;x1;1 + x3 + 0.3*x1"], ["flat_nambu", "--n", "4", "--k", "3"]]
    out = [["list"]]
    for argv in variants + [config(name) for name in BENCH_CONFIGS]:
        for samples in ("1", "7", "60", "200"):
            for seed in ("0", "3"):
                out.append(["check", *argv, "--samples", samples, "--seed", seed])
        out.append(["check", *argv, "--json", "{json}"])
    out += [["check", "quasisymmetry", "--psi", "x1*x1 + x2"],
            ["check", "oscillator", "--identities", "closure,measure"]]
    for name in ("moser1", "moser2"):
        for flags in ([], ["--numeric"]):
            for more in (["--samples", "4"], ["--samples", "20"], ["--t", "-1"]):
                out.append(["flatten", name, *flags, *more])
        out.append(["flatten", name, "--json", "{json}"])
    runs = [([name], x0) for name, x0 in BUILTINS.items()]
    runs += [(config(name), x0) for name, x0 in BENCH_CONFIGS.items()]
    runs += [(["flat_nambu", "--n", "4", "--k", "3"], "0.1,0.2,0.3,0.4"),
             (["quasisymmetry", "--bvec", "-x2;x1;1 + x3 + 0.3*x1"], "1,0.5,0.3")]
    for argv, x0 in runs:
        for method in ("rk4", "rkf45"):
            out.append(["simulate", *argv, "--x0", x0, "--t-end", "0.05", "--dt", "1e-3",
                        "--method", method])
        out.append(["solve", *argv, "--point", x0])
    out += [["simulate", "oscillator", "--x0", BUILTINS["oscillator"], "--t-end", "20"],
            ["simulate", "oscillator", "--x0", BUILTINS["oscillator"], "--t-end", "1",
             "--method", "rkf45", "--reltol", "1e-12", "--dt", "0.5"],
            ["simulate", "quasisymmetry", "--x0", "1,0.5,0.3", "--t-end", "50"]]
    for name in CONFIGS:
        out.append(["check", *config(name)])
    steps = ["--t-end", "0.01", "--dt", "0.001"]
    for name, x0 in (("reprob", "1,0.5,0.5"), ("nanfield", "1,0.5,0.5"), ("cube", "1e200,0"),
                     ("cubeh", "1e200,0"), ("pole", "1e200,0"), ("steep", "-1.7975,0"),
                     ("big", "0.3,0.7,1.1"), ("big10", "0.3,0.7,1.1")):
        for method in ("rk4", "rkf45"):
            out.append(["simulate", *config(name), "--x0", x0, *steps, "--method", method])
    return out


def run(tree: Path, argv: list[str], scratch: Path) -> tuple[int, str, str, bytes | None]:
    """(exit code, sha256 of stdout, stderr, the --json file or None) of one
    call in a fresh interpreter of ``tree``."""
    report = scratch / "report.json"
    report.unlink(missing_ok=True)
    argv = [str(report) if arg == "{json}" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "ghm.cli", *argv], env=env, cwd=scratch,
                          capture_output=True, timeout=600)
    written = report.read_bytes() if report.exists() else None
    return (done.returncode, hashlib.sha256(done.stdout).hexdigest(),
            done.stderr.decode(errors="replace"), written)


def compare(old: Path, new: Path, argvs: list[list[str]], scratch: Path):
    """Per call: (argv, names of the outputs that differ)."""
    for argv in argvs:
        a, b = run(old, argv, scratch), run(new, argv, scratch)
        yield argv, [name for name, x, y in zip(("exit", "stdout", "stderr", "json"), a, b)
                     if x != y]


def write_configs(directory: Path) -> Path:
    """``bench/configs`` and ``CONFIGS`` as JSON files in ``directory``."""
    for path in (HERE / "bench" / "configs").glob("*.json"):
        (directory / path.name).write_bytes(path.read_bytes())
    for name, doc in CONFIGS.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return directory


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for call, diff in compare(old, new, calls(write_configs(scratch)), scratch):
            differ += bool(diff)
            shown = " ".join(arg.replace(str(scratch), "$CONFIGS") for arg in call)
            print(f"{'DIFF ' + ','.join(diff) if diff else 'same':<24} {shown}", flush=True)
    print(f"{differ} of the calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
