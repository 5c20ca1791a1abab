"""Start-up guard: a repro process imports only what its command runs.

On a 2-core VM ``scipy.stats`` takes about a second to import and
``scipy.special`` about a third of one, which would dominate every small
``python -m repro`` call.  No
module under ``src/repro`` imports scipy at module level; the few functions
that need it import it themselves, and replication summaries read their 95%
quantiles from a table up to 129 replicates.  Likewise networkx (~0.15 s),
the HTTP daemon, the campaign stack and the process pool load only in the
commands that use them, and the package ``__init__`` modules resolve their
exports on first access, so a command loads no module it does not run.
Pytest's own process may already hold all of these, so every runtime check
runs in a fresh interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

# Imports a module (repro.cli, or repro alone), optionally runs
# repro.cli.main(argv), then prints the names of the modules the interpreter
# holds.
_PROBE = """
import contextlib, importlib, io, json, sys
module = importlib.import_module(sys.argv[1])
argv = json.loads(sys.argv[2])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = module.main(argv)
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""

SWEEP = ["sweep", "--options", "0.8", "0.5", "--populations", "200", "400"]
SWEEP += ["--horizon", "20", "--replications", "4"]
NETWORK = ["network", "--options", "0.8", "0.5", "--topology", "watts_strogatz"]
NETWORK += ["--size", "200", "--horizon", "20", "--replications", "4"]
PROTOCOL = ["protocol", "--options", "0.8", "0.5", "--nodes", "200"]
PROTOCOL += ["--rounds", "20", "--replications", "4"]
RUN = ["run", "--options", "0.8", "0.5", "--population", "200", "--horizon", "20"]
RUN += ["--replications", "4"]
# A simulate -> analyse -> report campaign whose analyse node summarises
# three rows of each metric.
CAMPAIGN_SPEC = {
    "name": "startup",
    "nodes": [
        {
            "id": "sim",
            "kind": "simulate",
            "request": {
                "kind": "sweep",
                "options": [0.8, 0.5],
                "populations": [50, 80, 120],
                "horizon": 6,
                "replications": 2,
                "engine": "loop",
            },
        },
        {"id": "stats", "kind": "analyse", "inputs": ["sim"]},
        {"id": "summary", "kind": "report", "inputs": ["sim", "stats"]},
    ],
}


# What a bare `import repro.cli` must leave to the commands that use them.
COMMAND_SUBSYSTEMS = (
    "networkx",
    "http.server",
    "repro.campaign",
    "repro.service.daemon",
    "repro.network",
    "repro.distributed",
    "multiprocessing",
)


# The modules that only simulate, bounds, coupling, campaign and trace use.
COMMAND_ONLY_MODULES = (
    "repro.analysis.concentration",
    "repro.analysis.convergence",
    "repro.analysis.proof_trace",
    "repro.core.coupling",
    "repro.core.epochs",
    "repro.core.heterogeneous",
    "repro.core.infinite",
    "repro.core.theory",
    "repro.environments.continuous",
    "repro.environments.drift",
    "repro.environments.replay",
    "repro.obs.summary",
    "repro.runtime.backend",
    "repro.utils.logging",
)


def _env():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _loaded_modules(argv, *packages, module="repro.cli"):
    """The loaded modules in ``packages`` (or below them) after ``argv``."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, module, json.dumps(argv)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return {
        module
        for module in json.loads(result.stdout.splitlines()[-1])
        if any(module == name or module.startswith(name + ".") for name in packages)
    }


def _module_level_scipy_imports(source):
    """Line numbers of scipy imports that run when the module is imported."""
    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_no_module_imports_scipy_at_module_level():
    offenders = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _module_level_scipy_imports(path.read_text()))
    }
    assert offenders == {}


def test_importing_the_cli_loads_no_scipy():
    assert _loaded_modules([], "scipy") == set()


def test_importing_the_cli_loads_no_command_subsystem():
    assert _loaded_modules([], *COMMAND_SUBSYSTEMS) == set()


def test_importing_the_package_loads_no_numpy():
    assert _loaded_modules([], "numpy", module="repro") == set()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        [*SWEEP, "--engine", "batched"],
        [*SWEEP, "--engine", "loop"],
        NETWORK,
        PROTOCOL,
        RUN,
    ],
    ids=["import", "sweep-batched", "sweep-loop", "network", "protocol", "run"],
)
def test_commands_load_no_module_they_do_not_run(argv):
    assert _loaded_modules(argv, *COMMAND_ONLY_MODULES) == set()


@pytest.mark.parametrize("engine", ["batched", "loop"])
def test_sweep_loads_no_scipy(engine):
    assert _loaded_modules([*SWEEP, "--engine", engine], "scipy") == set()


@pytest.mark.parametrize(
    "argv",
    [[*SWEEP, "--engine", "batched"], [*SWEEP, "--engine", "loop"], PROTOCOL],
    ids=["sweep-batched", "sweep-loop", "protocol"],
)
def test_commands_without_a_graph_load_no_networkx(argv):
    assert _loaded_modules(argv, "networkx") == set()


def test_network_loads_networkx():
    # The positive control: the probe does see networkx when it is loaded.
    assert "networkx" in _loaded_modules(NETWORK, "networkx")


@pytest.mark.parametrize("command", ["network", "protocol", "run", "campaign"])
def test_summary_tables_load_no_scipy(command, tmp_path):
    spec = tmp_path / "campaign.json"
    spec.write_text(json.dumps(CAMPAIGN_SPEC))
    argv = {
        "network": NETWORK,
        "protocol": PROTOCOL,
        "run": RUN,
        "campaign": ["campaign", "--spec", str(spec)],
    }[command]
    assert _loaded_modules(argv, "scipy") == set()


def test_summaries_past_the_table_load_scipy_special_not_stats():
    # The positive control: 130 replicates are one past the quantile table.
    argv = [*PROTOCOL[:-1], "130"]
    modules = _loaded_modules(argv, "scipy")
    assert "scipy.special" in modules
    assert "scipy.stats" not in modules


def test_python_m_repro_leaves_what_main_leaves(tmp_path, capsys):
    # `python -m repro` runs main() between two gc.freeze() calls and exits
    # through interpreter shutdown; its CSV, store and trace must be what an
    # in-process main() writes, flushed and complete.
    from repro.cli import main
    from repro.obs import validate_record

    argv = [*SWEEP, "--engine", "loop"]
    store = tmp_path / "store.sqlite"
    trace = tmp_path / "trace.jsonl"
    outputs = ["--output", str(tmp_path / "process.csv")]
    runtime = ["--store", str(store), "--trace-out", str(trace)]
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv, *outputs, *runtime],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert main([*argv, "--output", str(tmp_path / "main.csv")]) == 0
    process_csv = (tmp_path / "process.csv").read_bytes()
    assert process_csv == (tmp_path / "main.csv").read_bytes()
    capsys.readouterr()
    assert main([*argv, "--store", str(store), "--resume"]) == 0
    assert ", 0 misses," in capsys.readouterr().out
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert [problem for record in records for problem in validate_record(record)] == []
