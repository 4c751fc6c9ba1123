"""What importing the package and running a command loads, and the package's names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylstat
from weylstat import clt, depgraph, errors, formulas, rootsys, stats, weyl

SRC = str(Path(weylstat.__file__).resolve().parents[1])
OPTIONAL = ("weylstat.weyl", "weylstat.clt", "weylstat.depgraph", "weylstat.formulas",
            "weylstat.stats", "hashlib")

# Every name the package exported when it imported all of its modules eagerly,
# by the module that defines it.
EXPORTS = {
    errors: ("ComponentMismatchError", "InternalConsistencyError", "InvalidSpecError",
             "PropertyViolationError", "RangeError", "StaleRootError", "TooLargeError",
             "WeylstatError"),
    rootsys: ("Component", "FamilySpec", "Root", "RootSystem", "build", "parse_spec"),
    weyl: ("G2Part", "SignedPermPart", "WeylElement", "apply", "compose", "derived_seed",
           "element", "enumerate_elements", "group_order", "identity", "inverse",
           "inversion_set", "is_inversion", "longest_element", "parabolic_decompose",
           "parse_element", "render_element", "sample_uniform", "simple_reflection"),
    stats: ("SampleRun", "WPartitionCounts", "bootstrap_variance_se", "exact_cov",
            "exact_distribution", "exact_joint_distribution", "exact_mean", "exact_variance",
            "mc_run", "wpartition_counts"),
    formulas: ("BlockCovariancesB", "VarianceQuery", "block_covariances_b", "cov_closed",
               "cov_closed_angle", "interaction_count", "nn_block_b", "var_descents",
               "var_inversions", "var_lower_bound", "variance_with_branch"),
    depgraph: ("DependencyGraph", "antichains", "build_graph", "check_antichain_degree",
               "degree_bound_phi_d"),
    clt: ("CLTReport", "RegimeClassification", "classify_regime", "clt_report",
          "janson_criterion", "ks_distance", "normal_cdf", "standardize",
          "theoretical_variance"),
}


def _loaded(code: str, modules=OPTIONAL) -> set[str]:
    """The ``modules`` (by default OPTIONAL) that a fresh interpreter holds after running ``code``."""
    report = f"import json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_only_the_errors_and_the_catalog():
    assert _loaded("import weylstat") == set()


def test_cli_import_loads_neither_the_object_model_nor_the_other_commands():
    assert _loaded("import weylstat.cli") == {"weylstat.stats"}


@pytest.mark.parametrize("argv", [["dist", "A9", "-d", "3", "--format", "json"],
                                  ["roots", "B3", "-d", "2"]])
def test_a_command_loads_only_what_it_runs(argv):
    code = ("import contextlib, io\nfrom weylstat import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.run({argv!r}) == 0")
    assert _loaded(code) == {"weylstat.stats"}


@pytest.mark.parametrize("argv, loads_numpy", [
    (None, False),
    (["dist", "A9", "-d", "3", "--format", "json"], False),
    (["var", "A5", "--stat", "descents", "-d", "2"], False),
    (["cov", "A4", "N[1,2]", "N[2,3]", "--method", "closed"], False),
    (["roots", "B3", "-d", "2"], False),
    (["sample", "A3", "-d", "1", "--samples", "10", "--seed", "1"], True),
])
def test_numpy_loads_only_where_a_kernel_runs(argv, loads_numpy):
    code = "import contextlib, io, sys\nfrom weylstat import cli\n"
    if argv is not None:
        code += f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.run({argv!r}) == 0\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + "print('numpy' in sys.modules)"], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.split() == [str(loads_numpy)]


_RUN = ("import contextlib, io\nfrom weylstat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.run({!r}) == 0")


@pytest.mark.parametrize("code", [
    "import weylstat",
    "import weylstat.cli",
    _RUN.format(["dist", "A9", "-d", "3", "--format", "json"]),
    _RUN.format(["roots", "B3", "-d", "2"]),
    _RUN.format(["var", "A5", "--stat", "descents", "-d", "2"]),
    _RUN.format(["depgraph", "A3", "-d", "2"]),
    _RUN.format(["depgraph", "A3", "-d", "2", "--format", "json"]),
    "import weylstat\nweylstat.inversion_set",
], ids=["import", "import-cli", "dist", "roots", "var", "depgraph", "depgraph-json", "inversion_set"])
def test_no_command_loads_the_introspection_modules(code):
    # dataclasses imports inspect, and inspect imports ast, dis and tokenize:
    # records are named tuples, so a short command compiles none of them
    assert _loaded(code, ("dataclasses", "inspect")) == set()


@pytest.mark.parametrize("code", [
    "import weylstat.clt",
    "import weylstat.depgraph",
    _RUN.format(["clt", "A3", "-d", "1", "--samples", "10", "--seed", "1"]),
], ids=["import-clt", "import-depgraph", "clt"])
def test_the_clt_records_load_no_dataclasses(code):
    # clt loads numpy, which imports inspect itself
    assert _loaded(code, ("dataclasses",)) == set()


def test_a_name_loads_its_own_module():
    assert _loaded("import weylstat\nweylstat.mc_run") == {"weylstat.stats"}
    assert _loaded("import weylstat\nweylstat.inversion_set") == {"weylstat.weyl"}
    assert "weylstat.clt" in _loaded("import weylstat\nweylstat.clt_report")
    assert _loaded("from weylstat import formulas") == {"weylstat.formulas"}


def test_exports_are_the_objects_of_their_modules():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(weylstat.__all__) == sorted(names)
    assert set(names) <= set(dir(weylstat))
    for module, group in EXPORTS.items():
        assert getattr(weylstat, module.__name__.rpartition(".")[2]) is module
        for name in group:
            assert getattr(weylstat, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        weylstat.missing


def test_weyl_reexports_the_shared_helpers():
    for name in ("DEFAULT_CAP", "component_order", "derived_seed", "group_order"):
        assert getattr(weyl, name) is getattr(rootsys, name)
    assert weyl._G2_ORDER == rootsys.component_order(rootsys.Component("G2", 2))


def _source_definitions(module) -> set[str]:
    """The qualified names of the defs and classes at module or class level of the module's source."""
    import ast

    found = set()

    def visit(nodes, prefix):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
            else:  # a def under an if, try or with is still at this level
                visit(ast.iter_child_nodes(node), prefix)

    visit([ast.parse(Path(module.__file__).read_text(encoding="utf-8"))], "")
    return found


def test_every_annotation_resolves():
    import inspect
    import typing
    from functools import cached_property

    from weylstat import cli

    def functions(member):
        if isinstance(member, (staticmethod, classmethod)):
            return [member.__func__]
        if isinstance(member, property):
            return [member.fget]
        if isinstance(member, cached_property):
            return [member.func]
        # an lru_cache wrapper keeps its function as __wrapped__
        return [inspect.unwrap(member)] if callable(member) else []

    def walk(namespace, module, checked):
        for obj in list(namespace.values()):
            if inspect.isclass(obj):
                if obj.__module__ == module.__name__ and obj.__qualname__ not in checked:
                    typing.get_type_hints(obj)  # a named tuple's fields are class annotations
                    checked.add(obj.__qualname__)
                    walk(vars(obj), module, checked)
                continue
            for f in functions(obj):
                # skip functions compiled elsewhere, such as a NamedTuple's __new__
                if inspect.isfunction(f) and f.__code__.co_filename == module.__file__:
                    typing.get_type_hints(f)
                    checked.add(f.__qualname__)

    for module in (weylstat, cli, clt, depgraph, errors, formulas, rootsys, stats, weyl):
        checked: set[str] = set()
        walk(vars(module), module, checked)
        assert checked == _source_definitions(module), module.__name__


def test_the_catalog_and_the_object_model_run_without_numpy():
    code = (
        "import sys\nfrom fractions import Fraction\n"
        "import weylstat\nfrom weylstat import formulas\n"
        "rs = weylstat.build('B5xG2')\nw0 = weylstat.longest_element(rs)\n"
        "for w in weylstat.enumerate_elements(rs):\n"
        "    weylstat.inversion_set(w)\n    weylstat.compose(w, w0)\n"
        "q = formulas.VarianceQuery('A', 5, 2, 'descents')\n"
        "assert formulas.var_descents(q) == Fraction(7, 12)\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)"
    )
    assert _loaded(code) == {"weylstat.weyl", "weylstat.formulas"}
