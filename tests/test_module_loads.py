"""One table of what each entry point may load.

Each row runs its code in a fresh interpreter and names the module
prefixes that the code must not add to ``sys.modules``; a module that the
interpreter's site already loaded does not count.
"""

import ast
import os
import subprocess
import sys

import pytest

import kramers_gl


def _cli(*commands):
    """Code that runs ``cli.main`` on each command line, which must exit 0."""
    return (
        "from kramers_gl.cli import main\n"
        f"for argv in {[command.split() for command in commands]!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )


NEU_SWEEP = "sweep --bc neumann --L-range 2.5:4.5:0.5 --eps 0.01"
ONE_SHARD_ENSEMBLE = """\
import kramers_gl.simulator as simulator
from kramers_gl import BoundaryCondition, SimConfig, SystemParams
cfg = SimConfig(params=SystemParams(L=2.0, eps=0.5, bc=BoundaryCondition.NEUMANN),
                K=8, dt=2e-3, t_max=3.0, n_traj=127, seed=1)
assert simulator._shard_count(cfg.n_traj) == 1
simulator.estimate_mfpt(cfg)
"""

# row -> (code run in the working directory tmp_path, module prefixes it
# must not add)
MODULE_LOADS = {
    # every exported name resolves on first use; the package alone is cheap
    "import": ("import kramers_gl\n", ("kramers_gl.", "numpy")),
    # scipy serves only the quadrature oracles and numpy only the arrays of
    # profiles, spectra and the simulator; importing either costs more than
    # a closed-form rate call itself
    "rate and sweep": (
        "import kramers_gl\n" + _cli(
            "rate --bc neumann --L 4.0 --eps 0.01",
            "rate --bc periodic --L 5.0 --eps 0.01",
            NEU_SWEEP + " --eps 1e-4",
        ),
        ("numpy", "scipy"),
    ),
    # profile samples and formats its grid in pure math, also with --out
    "profile": (
        _cli(
            "profile --bc periodic --L 9.0",
            "profile --bc neumann --L 4.0 --modes 16",
            "profile --bc periodic --L 7.0 --out profile.csv",
            "profile --bc neumann --L 4.0 --out profile.csv",
        ) + "import os\nassert os.path.exists('profile.csv.manifest.json')\n",
        ("numpy",),
    ),
    # dataclasses imports inspect, ast, dis and tokenize: about a sixth of a
    # cold rate call. The rate path's value types are __slots__ records, and
    # its closed forms (mu0, mu1) live in instanton, not in spectrum.
    "closed-form commands": (
        _cli(
            "rate --bc neumann --L 2.0 --eps 0.01",
            "rate --bc neumann --L 4.0 --eps 0.01",
            "rate --bc periodic --L 5.0 --eps 0.01",
            "rate --bc periodic --L 9.0 --eps 0.01",
            NEU_SWEEP,
            "sweep --bc periodic --L-range 5.5:7.5:0.5 --eps 0.01",
            "profile --bc periodic --L 9.0",
            "profile --bc neumann --L 4.0",
        ),
        ("dataclasses", "inspect", "kramers_gl.spectrum", "numpy"),
    ),
    # hashlib, and the OpenSSL it loads, digests written files; only an
    # mfpt ensemble loads it otherwise, as numpy.random imports secrets ->
    # hmac -> hashlib
    "stdout runs": (
        _cli(
            "rate --bc periodic --L 9.0 --eps 0.01",
            "rate --bc neumann --L 2.0 --eps 0.01",
            NEU_SWEEP,
            "profile --bc neumann --L 4.0 --modes 64",
            "spectrum --bc neumann --L 4.0 --modes 4",
            "verify --quick",
        ),
        ("hashlib", "_hashlib"),
    ),
    # the pool machinery stays out of the import and of ensembles under 128
    "one-shard ensemble": (ONE_SHARD_ENSEMBLE, ("multiprocessing", "concurrent.futures")),
}


def modules_added_while(body, cwd):
    """Modules a fresh interpreter adds while it runs the code ``body``."""
    code = f"import sys\nbefore = set(sys.modules)\n{body}print(sorted(set(sys.modules) - before))\n"
    src = os.path.dirname(os.path.dirname(kramers_gl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("row", list(MODULE_LOADS))
def test_a_run_loads_no_module_it_does_not_use(row, tmp_path):
    code, prefixes = MODULE_LOADS[row]
    added = modules_added_while(code, tmp_path)
    assert "kramers_gl" in added  # the probe began before the package loaded
    assert [name for name in added if name.startswith(prefixes)] == []
