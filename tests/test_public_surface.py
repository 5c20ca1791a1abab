"""Every public top-level name under ``src/repro`` has a caller outside tests.

A public ``def`` or ``class`` that no other ``src/`` module, benchmark,
example, perfbench file or CI step references is library surface that
nothing runs: it either gains a caller or goes.  A name counts as
referenced when it appears as a ``tokenize`` NAME token

* in another ``src/repro`` module,
* in its own module, outside its own definition, or
* under ``benchmarks/``, ``examples/`` or ``perfbench/``, or in the CI
  workflow.

Only code counts: a mention in a docstring or comment is not a NAME token,
and neither is an import statement, so a package ``__init__`` that
re-exports a name does not call it.  A decorator is a NAME token and
counts.  ``KEPT`` names the survivors that stay without such a caller, each
with its reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

KEPT: Dict[str, str] = {
    "repro.analysis.proof_trace:trace_theorem_43": (
        "the model-health item either wires it into `repro simulate "
        "--infinite` rows or deletes the module"
    ),
    "repro.core.dynamics:AgentBasedDynamics": (
        "the per-agent reference implementation tests compare the "
        "aggregate engines against"
    ),
    "repro.network.dynamics:simulate_network_dynamics": (
        "the per-agent network reference tests compare the batched "
        "network engine against"
    ),
    "repro.utils.rng:spawn_rngs": (
        "the reference stream split tests compare seed derivation against"
    ),
    "repro.experiments.io:read_csv": (
        "the reader the write_csv round-trip and CLI-output tests use"
    ),
    "repro.core.sampling:PopularityOnlySampling": (
        "the mu = 0 ablation endpoint a dynamics test runs"
    ),
    "repro.runtime.backend:Backend": (
        "the protocol declaration every execution backend satisfies"
    ),
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _src_files() -> List[Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def _code_names(path: Path) -> List[Tuple[str, int]]:
    """``(name, line)`` of every NAME token outside import statements."""
    source = path.read_text(encoding="utf-8")
    import_lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            import_lines.update(range(node.lineno, node.end_lineno + 1))
    return [
        (token.string, token.start[0])
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME and token.start[0] not in import_lines
    ]


def _definitions(path: Path) -> Dict[str, Tuple[int, int]]:
    """Public top-level ``def``/``class`` names and their line spans."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


@lru_cache(maxsize=1)
def _index() -> Tuple[Dict[str, List[Tuple[str, int]]], Set[str]]:
    """Per-``src`` module NAME tokens, and the names used outside ``src``."""
    per_module = {_module_name(path): _code_names(path) for path in _src_files()}
    outside: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside.update(name for name, _ in _code_names(path))
    # The workflow is YAML with shell and Python inside; any identifier counts.
    outside.update(
        re.findall(r"[A-Za-z_][A-Za-z0-9_]*", CI_WORKFLOW.read_text("utf-8"))
    )
    return per_module, outside


MODULES = [
    path
    for path in _src_files()
    if path.name not in ("__init__.py", "__main__.py")
]


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_public_name_has_a_caller(path):
    module = _module_name(path)
    per_module, outside = _index()
    definitions = _definitions(path)
    elsewhere = {
        name
        for other, names in per_module.items()
        if other != module
        for name, _ in names
    }
    uncalled = set()
    for name, (first, last) in definitions.items():
        own = any(
            token == name and not first <= line <= last
            for token, line in per_module[module]
        )
        if not (own or name in elsewhere or name in outside):
            uncalled.add(name)
    kept = {
        entry.partition(":")[2]
        for entry in KEPT
        if entry.partition(":")[0] == module
    }
    assert sorted(uncalled - kept) == [], (
        f"{module}: public names nothing outside tests references; "
        "delete them or give them a caller"
    )
    assert sorted(kept - uncalled) == [], (
        f"{module}: KEPT entries that are gone or now have a caller"
    )
