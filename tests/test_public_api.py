import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import quantcurv
from quantcurv import cli
from quantcurv.experiments import HAMILTONIAN_LIBRARY

MODULES = sorted(m.name for m in pkgutil.iter_modules(quantcurv.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"quantcurv.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"quantcurv.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(quantcurv.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"quantcurv.{module}"), name), (module, name)
        assert hasattr(quantcurv, name), name


def _code_names() -> dict:
    """Every function and method defined in the package, nested ones included,
    as code object -> 'module.Qual.name'; comprehensions and lambdas left out."""
    out = {}

    def walk(code, name):
        out.setdefault(code, name)
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                walk(const, f"{name}.{const.co_name}")

    for short in MODULES:
        mod = importlib.import_module(f"quantcurv.{short}")
        for obj in vars(mod).values():
            if inspect.isclass(obj):
                if obj.__module__ != mod.__name__:
                    continue
                members = [getattr(v, "fget", v) for v in vars(obj).values()]
            else:
                members = [obj]
            for fn in members:
                fn = inspect.unwrap(getattr(fn, "__func__", fn))
                # the file test drops what dataclass generates and what is imported
                if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                    walk(fn.__code__, f"{short}.{fn.__qualname__}")
    return out


# Package code that one small run of every experiment, then `summarize`, never enters.
NEVER_ENTERED = {
    # bound by name in perfbench/tracing.py, which counts calls to them
    "fock.FockTruncation.basis",
    "toeplitz.ChartFunction.eval",
    "sphere.SectionBasis.coeffs",  # also bound as SectionSpace.coeffs
    "sphere.SectionSpace.compress_mult",
    # criterion 7's finite-difference cross-check of the curvature
    "sphere.curvature_commutator",
    "sphere.curvature_fd",
    "sphere.curvature_fd.one",
    "sphere.curvature_fd.one.delta_pair",
    "sphere.pullback_frame",
    # runs at import time
    "toeplitz._LogFactorials.__init__",
    # called by repr() alone
    "toeplitz.ChartFunction.__repr__",
}


def test_run_and_summarize_enter_all_but_the_listed_code(tmp_path):
    # each experiment once at a smoke size, every library Hamiltonian included,
    # under a profiler that records each Python function entered
    hams = sorted(HAMILTONIAN_LIBRARY)
    entries = [
        ("bargmann-curvature", {"n": 1, "N": 4, "D": 8, "n_random_pairs": 3}),
        ("bargmann-curvature", {"n": 2, "N": 4, "D": 8, "n_random_pairs": 3}),
        ("sphere-convergence", {"N_list": [8, 16], "hamiltonians": hams[:2]}),
        ("sphere-convergence", {"N_list": [8, 16], "hamiltonians": hams[2:4]}),
        ("sphere-convergence", {"N_list": [8, 16], "hamiltonians": hams[4:]}),
        ("schrodinger-intertwine", {
            "N": 8, "dt": 1e-3, "t_end": 0.02,
            "cases": [{"hamiltonian": h, "tol": 1e-3} for h in hams],
        }),
        ("teichmuller-symbol", {"n_tuples": 3}),
    ]
    csvs = [str(tmp_path / f"{i}.csv") for i in range(len(entries))]
    config = {"seed": 1, "experiments": [
        {"experiment": name, "parameters": params, "output_path": path}
        for (name, params), path in zip(entries, csvs)
    ]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    names = _code_names()
    # memoized code would be skipped wherever an earlier test filled its cache
    for short in MODULES:
        for obj in vars(importlib.import_module(f"quantcurv.{short}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()
    before = sys.getprofile()
    sys.setprofile(lambda frame, event, _arg: event == "call" and entered.add(frame.f_code))
    try:
        status = (cli.main(["run", str(path)]), cli.main(["summarize", *csvs]))
    finally:
        sys.setprofile(before)
    assert status == (0, 0)
    assert {name for code, name in names.items() if code not in entered} == NEVER_ENTERED


def _source_trees() -> dict:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(quantcurv.__file__).parent.glob("*.py"))
    }


def _package_imports(tree):
    """(source, name, bound) for each name a module imports from the package:
    source is the short name of the module imported from, '' for the package
    itself (`from . import sphere` imports a module)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.split(".")[0] == "quantcurv":
                source = module.removeprefix("quantcurv").lstrip(".")
                for alias in node.names:
                    yield source, alias.name, alias.asname or alias.name


def test_no_private_name_crosses_a_module_boundary():
    # a leading underscore keeps a name inside its module: no module of the
    # package imports one from another, or reads one off an imported module
    crossings = []
    for short, tree in _source_trees().items():
        modules = set()
        for source, name, bound in _package_imports(tree):
            if name.startswith("_"):
                crossings.append(f"{short}: from {source or 'quantcurv'} import {name}")
            if not source:
                modules.add(bound)
        crossings += [
            f"{short}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    assert not crossings


def test_fock_imports_nothing_from_sphere():
    # both models stand on the model-neutral engine, not on each other
    imported = [
        (source, name)
        for source, name, _bound in _package_imports(_source_trees()["fock"])
        if source == "sphere" or (source, name) == ("", "sphere")
    ]
    assert not imported


# Per-layer metrics of BENCHMARK.json whose code left the package, so the
# tracer binds nothing to them and they read 0: each function moved to the
# test oracles (tests/sphere_oracle.py, tests/transport_oracle.py and
# tests/fock_oracle.py).
KNOWN_DEAD_LAYERS = {
    "sphere.generator_apply",
    "linalg.orthonormal_columns",
    "fock.project",
}


def test_benchmark_layers_are_bound_where_the_tracer_looks():
    # perfbench/tracing.py finds a `module.function` layer as a public
    # function defined in that module, and a `module.Class.attr` layer in
    # its METHODS table as an entry of the class's __dict__; a layer found
    # nowhere reads 0 silently, so moving code must keep these bindings
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    methods = {name: (short, cls, attr) for short, cls, attr, name, _count in tracing.METHODS}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    layers = {m["name"].rsplit(".", 1)[0] for m in metrics if not m["name"].startswith("trace.")}
    assert layers
    dead = set()
    for layer in sorted(layers):
        short, *rest = layer.split(".")
        assert short in tracing.MODULES, layer
        mod = importlib.import_module(f"quantcurv.{short}")
        if len(rest) == 1:
            fn = vars(mod).get(rest[0])
            bound = (
                not rest[0].startswith("_")
                and callable(fn)
                and not isinstance(fn, type)
                and getattr(fn, "__module__", None) == mod.__name__
            )
        elif layer in methods:
            _short, cls, attr = methods[layer]
            bound = attr in vars(getattr(mod, cls))
        else:
            bound = False
        if not bound:
            dead.add(layer)
    assert dead == KNOWN_DEAD_LAYERS
