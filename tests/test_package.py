"""The package namespace (``__all__`` and the imports in ``__init__``),
the data files the wheel ships, where the package imports numpy, what
elaborating a circuit leaves for ``apply`` to do, the bound on every
argument cache, the names the benchmark tracer wraps, and the bytes of and
the work done by the benchmark's library requests."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import itertools
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ghzgen
from ghzgen.dsl import BUILTINS, builtin_text, elaborate, parse
from ghzgen.elements import make_bs, make_hwp45, make_hwp90, make_pbs, make_route
from ghzgen.network import TRIGGER_GROUP
from ghzgen.source import LOWER_ARM, UPPER_ARM


def test_all_lists_exactly_the_public_names():
    # the import list and __all__ in __init__.py are kept by hand; a name
    # added to one and not the other fails here
    bound = {
        name
        for name, value in vars(ghzgen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ghzgen.__all__) == sorted(bound)
    assert len(ghzgen.__all__) == len(set(ghzgen.__all__))


def test_every_fixture_file_is_package_data():
    # a data file that no package-data glob names is left out of the wheel
    # and only fails once installed
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["ghzgen"]
    package = root / "src" / "ghzgen"
    files = [p.relative_to(package) for p in (package / "fixtures").rglob("*") if p.is_file()]
    assert files
    missing = [str(p) for p in files if not any(p.match(glob) for glob in globs)]
    assert not missing


def _numpy_imports(node, function=None) -> list:
    """Enclosing function (None at module level) of every import of numpy
    under ``node`` that runs; the body of ``if TYPE_CHECKING:`` does not."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = []
    found = [function for m in modules if m.split(".")[0] == "numpy"]
    children = ast.iter_child_nodes(node)
    if isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING",
        "typing.TYPE_CHECKING",
    ):
        children = node.orelse
    for child in children:
        found += _numpy_imports(child, function)
    return found


def test_numpy_is_imported_only_by_entanglement_summary():
    # numpy's import is most of a CLI start; only the diagnostic that needs
    # it may pay for it, and only when it runs
    package = Path(ghzgen.__file__).resolve().parent
    found = [
        (path.stem, function)
        for path in sorted(package.glob("*.py"))
        for function in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("states", "entanglement_summary")]


def _declared_names(name) -> set:
    network = elaborate(parse(builtin_text(name)), name=name)
    modes = {r.mode for e in network.elements for r in e.in_rails + e.out_rails}
    detectors = {d.name for d in network.detectors}
    return modes | detectors | {m for d in network.detectors for m in d.modes}


def test_no_fixture_names_in_the_package():
    # the .onet files are the one definition of the builtin circuits; a mode
    # or detector name written into the code is a second copy that a renamed
    # circuit silently disagrees with.  The source arms and the trigger
    # group are names the package itself defines.
    names = set().union(*map(_declared_names, BUILTINS))
    names -= {*UPPER_ARM, *LOWER_ARM, TRIGGER_GROUP}
    package = Path(ghzgen.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


@pytest.mark.parametrize("name", BUILTINS)
def test_elaborate_builds_no_apply_plans(name):
    # a CLI start elaborates the builtin circuits before any state exists;
    # pattern plans and stages are built inside apply only, on the first
    # sight of a ket order.  The constructors intern, so earlier tests'
    # elements are dropped first
    for make in (make_bs, make_hwp45, make_hwp90, make_pbs, make_route):
        make.cache_clear()
    network = elaborate(parse(builtin_text(name)), name=name)
    assert network.elements
    assert all(not (e._patterns or e._stages) for e in network.elements)


def test_every_argument_cache_is_bounded():
    # an unbounded cache keyed on its arguments grows for the life of the
    # process with every distinct call; one without parameters holds one entry
    caches = {}
    for info in pkgutil.iter_modules(ghzgen.__path__, "ghzgen."):
        if info.name == "ghzgen.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_parameters"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    assert "ghzgen.elements.make_pbs" in caches
    assert "ghzgen.source.two_pair_product" in caches
    unbounded = [
        name
        for name, cached in caches.items()
        if inspect.signature(cached.__wrapped__).parameters
        and not isinstance(cached.cache_parameters()["maxsize"], int)
    ]
    assert unbounded == []


def _benchmark_module(name: str) -> types.ModuleType:
    """``benchmarks/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets() -> list:
    """The ``(module, attribute)`` pairs of ``benchmarks/tracer.py``'s
    ``TARGETS``."""
    return [(module, attr) for _, module, attr, _ in _benchmark_module("tracer").TARGETS]


def test_every_tracer_target_resolves():
    # the tracer skips a target it cannot find without a word, so a renamed
    # function would zero its per-layer metric; every name must resolve
    targets = _tracer_targets()
    assert ("ghzgen.states", "ModeTransform.apply") in targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_library_output_is_bit_exact():
    # the first 240 library-varied requests (seed 3), run against the
    # fixture networks as the benchmark loads them, serialize to the same
    # bytes as ever: any change to a number or a state shows here
    workloads = _benchmark_module("workloads")
    networks = {
        name: elaborate(parse(builtin_text(name)), name=name) for name in ("fig1", "fig3")
    }
    requests = itertools.chain.from_iterable(workloads.rounds("library-varied", 3))
    digest = hashlib.sha256()
    for kind, params in itertools.islice(requests, 240):
        result = workloads.call_library(ghzgen, networks, kind, params)
        digest.update(workloads.canonical_library_output(result))
    assert digest.hexdigest() == (
        "a55699c205702b21316061336fb4a64c05f57b8007a08b0cee5c5c87eb87c272"
    )


# a fresh interpreter's preamble: the package from src, the benchmark's
# workloads module from argv[1] and the builtin networks as it loads them
_LIBRARY_CHILD = (
    "import hashlib, importlib.util, itertools, sys\n"
    "import ghzgen\n"
    "from ghzgen import noise, pipeline, qnd, states\n"
    "from ghzgen.dsl import builtin_text, elaborate, parse\n"
    "spec = importlib.util.spec_from_file_location('workloads', sys.argv[1])\n"
    "workloads = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(workloads)\n"
    "networks = {n: elaborate(parse(builtin_text(n)), name=n) for n in ('fig1', 'fig3')}\n"
    "requests = itertools.chain.from_iterable(workloads.rounds('library-varied', 3))\n"
)


def _library_child(code: str) -> str:
    """Stdout of ``code`` run after ``_LIBRARY_CHILD`` in a fresh
    interpreter."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", _LIBRARY_CHILD + code, str(root / "benchmarks" / "workloads.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    ).stdout


def test_library_requests_do_a_fixed_amount_of_work():
    # the same 240 requests in a fresh interpreter, counting the stages and
    # count-pattern plans ModeTransform builds, the ket selections
    # project_each builds (for project_occupancy and postselect_coincidence
    # alike), the stages apply compiles into kernels, the ket orders
    # herald works out (once per order and detector), and the per-ket
    # tags, candidate families, error images and entanglement cells (once
    # per ket order and couplings, positions or errors).  The counts
    # depend on the circuits and the request mix alone; a change that
    # moves one re-records it with its reason
    out = _library_child(
        "built = {'_stage': 0, '_pattern_plan': 0, '_kernel': 0}\n"
        "def counted(name, method):\n"
        "    def wrapper(*args):\n"
        "        built[name] += 1\n"
        "        return method(*args)\n"
        "    return wrapper\n"
        "for name in ('_stage', '_pattern_plan'):\n"
        "    setattr(states.ModeTransform, name, counted(name, getattr(states.ModeTransform, name)))\n"
        "states._kernel = counted('_kernel', states._kernel)\n"
        "for kind, params in itertools.islice(requests, 240):\n"
        "    workloads.call_library(ghzgen, networks, kind, params)\n"
        "print(built['_stage'], built['_pattern_plan'], states._selection.cache_info().misses,\n"
        "      built['_kernel'], states._heralded.cache_info().misses,\n"
        "      *[f.cache_info().misses for f in (qnd._tags, noise._candidates, noise._errored,\n"
        "                                        states._cells)])\n"
    )
    counts = tuple(map(int, out.split()))
    # (stages, pattern plans, selections, kernels, heralds, tags,
    #  candidates, error images, entanglement cells)
    assert counts == (98, 104, 13, 32, 2, 1, 8, 41, 2)


def test_library_output_is_bit_exact_with_every_stage_compiled():
    # test_library_output_is_bit_exact in a fresh interpreter with
    # KERNEL_AFTER at 0: every apply, first sight included, runs a kernel
    out = _library_child(
        "states.KERNEL_AFTER = 0\n"
        "digest = hashlib.sha256()\n"
        "for kind, params in itertools.islice(requests, 240):\n"
        "    result = workloads.call_library(ghzgen, networks, kind, params)\n"
        "    digest.update(workloads.canonical_library_output(result))\n"
        "print(digest.hexdigest())\n"
    )
    assert out.split() == ["a55699c205702b21316061336fb4a64c05f57b8007a08b0cee5c5c87eb87c272"]
