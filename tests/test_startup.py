"""What a fresh CLI process starts and imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lirg
from lirg.cli import main

SRC = Path(lirg.__file__).resolve().parents[1]


def fresh(code, *argv, **env):
    """Run ``code`` in a new interpreter that finds lirg and has no
    OPENBLAS_NUM_THREADS of its own unless given one; its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**base, "PYTHONPATH": str(SRC), **env},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_import_starts_no_threads():
    assert fresh("import os, lirg.cli; print(len(os.listdir('/proc/self/task')))") == "1\n"


def test_explicit_openblas_setting_kept():
    code = "import os, lirg.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(code, OPENBLAS_NUM_THREADS="2") == "2\n"


@pytest.fixture(scope="module")
def roundtrip_files(tmp_path_factory):
    """A permutation and its decomposition over GF(2), n = 3."""
    tmp = tmp_path_factory.mktemp("files")
    perm, dec = tmp / "f.perm", tmp / "f.dec"
    ring = ["--n", "3", "--p", "2"]
    assert main(["aut", "sample", *ring, "--seed", "9", "--out", str(perm)]) == 0
    assert main(["aut", "decompose", *ring, "--perm", str(perm), "--out", str(dec)]) == 0
    return {"--perm": perm, "--report": dec}


# Runs the CLI on its arguments, then prints the exit code and whether
# numpy.ma (which np.unique imports) was loaded.
RUN_MAIN = (
    "import sys\n"
    "from lirg.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, 'numpy.ma' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "sub, flag", [("verify", "--perm"), ("decompose", "--perm"), ("recompose", "--report")]
)
def test_aut_commands_do_not_load_numpy_ma(tmp_path, roundtrip_files, sub, flag):
    argv = ["aut", sub, "--n", "3", "--p", "2", flag, str(roundtrip_files[flag])]
    out = fresh(RUN_MAIN, *argv, "--out", str(tmp_path / "out.txt"))
    assert out == "0 False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--n", "2", "--p", "3"],
        ["build-graph", "--n", "2", "--p", "3", "--undirected"],
        ["aut", "count-quotient", "--n", "3", "--p", "2"],
    ],
    ids=["invariants", "build-graph-undirected", "count-quotient"],
)
def test_class_level_commands_do_not_load_numpy_ma(tmp_path, argv):
    out = fresh(RUN_MAIN, *argv, "--out", str(tmp_path / "out.txt"))
    assert out == "0 False\n"
