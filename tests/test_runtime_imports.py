"""The runtime imports with its declared dependencies, which are none.

``pyproject.toml`` declares ``dependencies = []``; numpy is a test
extra only.  Each case runs a fresh interpreter so that modules the
test session has already imported cannot hide an eager import.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

RUNTIME_MODULES = ("repro", "repro.experiments", "repro.cluster",
                   "repro.campaign", "repro.check", "repro.cli")


def _run(args, *path_first):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in path_first] + [str(SRC)])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, env=env)


def _shadow_numpy(tmp_path):
    """A directory whose ``numpy`` refuses to import, as on a clean
    install."""
    (tmp_path / "numpy.py").write_text(
        'raise ImportError("numpy is not a runtime dependency")\n')
    return tmp_path


def test_runtime_runs_without_numpy(tmp_path):
    shadow = _shadow_numpy(tmp_path)
    imports = _run(["-c", "import " + ", ".join(RUNTIME_MODULES)], shadow)
    assert imports.returncode == 0, imports.stderr[-2000:]

    version = _run(["-m", "repro", "--version"], shadow)
    assert version.returncode == 0, version.stderr[-2000:]
    assert version.stdout.strip()

    load = _run(["-c",
                 "from repro.experiments import run_replicated_load\n"
                 "from repro.replication import ReplicationStyle\n"
                 "run_replicated_load(ReplicationStyle.ACTIVE, n_replicas=3,"
                 " n_clients=1, n_requests=5)\n"], shadow)
    assert load.returncode == 0, load.stderr[-2000:]


def test_runtime_does_not_load_numpy():
    """Catches an eager import even where numpy is installed."""
    probe = _run(["-c",
                  "import sys\n"
                  "import " + ", ".join(RUNTIME_MODULES) + "\n"
                  "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"])
    assert probe.returncode == 0, probe.stderr[-2000:]
