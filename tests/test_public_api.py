import ast
import importlib
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
    "sphere.ChartFunction.eval",
    "sphere.SectionBasis.coeffs",  # also bound as SectionSpace.coeffs
    "sphere.SectionSpace.compress_mult",
    # criterion 7's finite-difference cross-check of the curvature
    "sphere.curvature_commutator",
    "sphere.curvature_fd",
    "sphere.curvature_fd.one",
    "sphere.curvature_fd.one.delta_pair",
    "sphere.pullback_frame",
    # runs at import time
    "sphere._LogFactorials.__init__",
    # called by repr() alone
    "sphere.ChartFunction.__repr__",
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
