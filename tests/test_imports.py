"""Import guards: ``import repro`` must not load heavy or undeclared modules,
every src module must have a caller, and every name the benchmark's traced
run wraps must still exist."""

from __future__ import annotations

import ast
import functools
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize(
    "module",
    [
        # scipy costs about half a second to import, and only the transient
        # expm solver and chains of 500 or more states call it; each imports
        # it where it computes.
        "scipy",
        # Not a declared dependency: chain validation searches the generator
        # matrix's graph with numpy.
        "networkx",
    ],
)
def test_import_repro_does_not_load(module):
    proc = _run_python(f"import repro, sys; assert {module!r} not in sys.modules")
    assert proc.returncode == 0, proc.stderr


#: Monte Carlo runs, RAID chain solves and the erasure checker cycle with
#: every scipy import failing.
WITHOUT_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

from repro.core.evaluation import evaluate, evaluate_stacked
from repro.core.parameters import paper_parameters
from repro.core.policies import erasure_policy
from repro.core.sweep import sweep, sweep_grid
from repro.exceptions import MarkovChainError
from repro.experiments.scrub_interval import run_scrub_interval_study
from repro.markov import ChainBuilder, checker
from repro.storage.raid import RaidGeometry

for policy in ("conventional", "automatic_failover"):
    for shape in (1.0, 1.3):
        params = paper_parameters(disk_failure_rate=1e-4, hep=0.01, failure_shape=shape)
        evaluate(params, policy, backend="monte_carlo", n_iterations=2000, seed=1)
sweep_grid(
    paper_parameters(failure_shape=1.3), "hep", [0.0, 0.01], "failure_rate",
    [1e-5, 1e-4], backend="monte_carlo", mc_iterations=2000, seed=1, workers=2,
)
evaluate_stacked(
    [paper_parameters(disk_failure_rate=rate, hep=0.0) for rate in (1e-6, 2e-6)],
    n_iterations=2000, max_iterations=20000, biasing=8.0, allocator="ci_width",
    target_half_width=1e-8, seed=1,
)
for policy in ("conventional", "automatic_failover", "baseline"):
    evaluate(paper_parameters(), policy, backend="analytical")

erasure = erasure_policy(3, 10, repair_threshold=8)
params = paper_parameters(geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=1e-4, hep=0.1)
evaluate(params, erasure, backend="analytical")
sweep(params, "hep", [0.0, 0.01, 0.1], erasure, backend="analytical")
chain = erasure.build_chain(params)
repair = checker.check_repair_matrix(chain, 10, 3, 8, 0.1, restore_from_down=False)
checker.survival_curve(chain, repair, 730.0, n_cycles=12)
run_scrub_interval_study(mc_iterations=2000)

builder = ChainBuilder("unreachable")
builder.add_up_state("A").add_up_state("B").add_down_state("C")
builder.add_transition("A", "B", 1.0).add_transition("B", "A", 1.0)
builder.add_transition("C", "A", 1.0)
try:
    builder.build()
except MarkovChainError:
    pass
else:
    raise SystemExit("a chain with an unreachable state passed validation")
"""


def test_monte_carlo_and_raid_chains_run_without_scipy():
    proc = _run_python(WITHOUT_SCIPY_SCRIPT)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Every src module has a caller
# ----------------------------------------------------------------------
#: The entry points a user runs.  Every file under ROOT_DIRS is a root too;
#: tests are not, so a module only its own tests import counts as dead.
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("examples", "benchmarks", "perfbench")

#: Modules allowed to stay without a caller, each with its reason.
KEPT_WITHOUT_CALLER = {
    "repro.core.montecarlo.engine_bridge": (
        "engine replay of a scalar trace, the debugging surface; "
        "test_policies.py::test_trace_replays_on_engine drives it"
    ),
    "repro.simulation.engine": "the event engine the engine replay runs on",
    "repro.analysis.lse_study": (
        "repro.analysis is kept whole, but no example, benchmark or "
        "command runs the LSE study"
    ),
    "repro.storage.lse": "the latent-sector-error model of the LSE study",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@functools.lru_cache(maxsize=None)
def _src_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_package(name: str) -> bool:
    return _src_modules()[name].name == "__init__.py"


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _imports(tree: ast.Module) -> Iterator[Tuple[str, Optional[str]]]:
    """Yield ``(module, name)`` for every import in ``tree``, nested ones too.

    ``name`` is the imported name of a ``from`` import and ``None`` for
    ``import M`` and ``importlib.import_module("M")``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                yield node.module, alias.name
        elif (
            isinstance(node, ast.Call)
            and _call_name(node) == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value, None


@functools.lru_cache(maxsize=None)
def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """Map each name a package ``__init__`` imports to ``(module, name)``."""
    exports = {}
    for node in _parse(_src_modules()[package]).body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                exports[alias.asname or alias.name] = (node.module, alias.name)
    return exports


def _target(module: str, name: Optional[str]) -> str:
    """Return the module that ``from module import name`` reaches."""
    if name is not None and module in _src_modules() and _is_package(module):
        source = _reexports(module).get(name)
        # ``from P import sub`` inside ``P/__init__`` names a submodule.
        if source is not None and source != (module, name):
            return _target(*source)
        if f"{module}.{name}" in _src_modules():
            return f"{module}.{name}"
    return module


def _registers_policy(module: str) -> bool:
    """Return whether ``module`` calls ``register_policy`` at top level.

    The registry imports the built-in policies by f-string, which a static
    scan cannot follow, so the package importing them stands in for it.
    """
    for node in _parse(_src_modules()[module]).body:
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call) and _call_name(value) == "register_policy":
            return True
    return False


@functools.lru_cache(maxsize=None)
def _reached() -> Set[str]:
    modules = _src_modules()
    reached: Set[str] = set()
    pending = list(ROOT_MODULES)
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            pending.extend(_target(m, n) for m, n in _imports(_parse(path)))
    while pending:
        name = pending.pop()
        if name not in modules or name in reached:
            continue
        reached.add(name)
        # Importing a submodule runs its parent packages first.
        pending.append(name.rpartition(".")[0])
        targets = [_target(m, n) for m, n in _imports(_parse(modules[name]))]
        if _is_package(name):
            # A package re-export reaches nothing: the import that names the
            # re-exported symbol is followed to its defining module instead.
            targets = [t for t in targets if t in modules and _registers_policy(t)]
        pending.extend(targets)
    return reached


MODULES = sorted(name for name in _src_modules() if not _is_package(name))


@pytest.mark.parametrize("module", MODULES)
def test_every_module_is_reached(module):
    if module in KEPT_WITHOUT_CALLER:
        return
    assert module in _reached(), (
        f"{module} is imported by no command, example, benchmark or "
        "perfbench workload; delete it, or list it in KEPT_WITHOUT_CALLER "
        "with its reason"
    )


@pytest.mark.parametrize("module", sorted(KEPT_WITHOUT_CALLER))
def test_kept_module_still_lacks_a_caller(module):
    assert module in MODULES, f"{module} no longer exists; drop it from the list"
    assert module not in _reached(), (
        f"{module} has gained a caller; drop it from KEPT_WITHOUT_CALLER"
    )


# ----------------------------------------------------------------------
# Every name perfbench wraps still exists
# ----------------------------------------------------------------------
def _perfbench_spans():
    """Load ``perfbench/spans.py`` by path; ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _owner_name(owner) -> str:
    if inspect.ismodule(owner):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


#: ``(owner, attribute)`` of every function the traced run wraps.
WRAPPED = [(owner, attribute) for owner, attribute, _, _ in _perfbench_spans().SPANS]


@pytest.mark.parametrize(
    "owner, attribute",
    WRAPPED,
    ids=[f"{_owner_name(owner)}.{attribute}" for owner, attribute in WRAPPED],
)
def test_perfbench_wrapped_name_exists(owner, attribute):
    # The tracer wraps ``owner.__dict__[attribute]`` where callers look it
    # up; a name that moved or was deleted breaks every traced run.
    assert attribute in owner.__dict__, (
        f"perfbench/spans.py wraps {_owner_name(owner)}.{attribute}, which no "
        "longer exists there; keep the name or retarget the benchmark"
    )
