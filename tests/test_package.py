"""Package-level checks: every public name a module declares exists,
every name the package re-exports is one its module declares,
new_source takes the parameters of the class it builds, and the names
the benchmark reads are still there."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import lpn
from lpn.instance import ExampleSource, ReplaySource, new_source
from lpn.instfile import InstanceData
from lpn.online import OnlineReport
from lpn.solvers import SolverResult
from lpn.sq import kwise_answer, sq_answer

MODULES = sorted(m.name for m in pkgutil.iter_modules(lpn.__path__, "lpn."))


def test_every_module_is_listed():
    assert "lpn.gf2" in MODULES and "lpn.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry imports fine and fails only on `import *`
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)


def test_package_exports_are_in_their_modules_all():
    # a name retired from a module's __all__ must not live on as a
    # package export
    with open(lpn.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported, stale = 0, []
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            name = f"lpn.{node.module}"
        elif node.level == 0 and node.module.startswith("lpn."):
            name = node.module
        else:
            continue
        listed = importlib.import_module(name).__all__
        imported += len(node.names)
        stale += [f"{name}.{a.name}" for a in node.names if a.name not in listed]
    assert imported > 0
    assert stale == []


def test_new_source_takes_the_parameters_of_example_source():
    # new_source forwards by keyword, so a parameter added to or dropped
    # from one of the two must be added to or dropped from the other
    init = list(inspect.signature(ExampleSource.__init__).parameters.values())
    assert list(inspect.signature(new_source).parameters.values()) == init[1:]


# What the benchmark reads from the package, by name: perfbench/tracer.py
# times these functions, counts SQ work from the positional arguments of
# sq_answer and kwise_answer, and reads fields of their results, and
# perfbench/workloads.py draws from a source and compares an instance
# file's bits.  The benchmark is not part of this suite, so a rename
# would otherwise fail only in a traced benchmark run.  The tracer also
# names gf2.rank_ints, which is gone; it is left out here.
TRACED_FUNCTIONS = [
    "cli.main", "solvers.recover_target", "solvers.mle_bruteforce",
    "instfile.generate_instance", "instfile.format_instance",
    "instfile.write_instance", "instfile.read_instance", "online.run_online",
    "sq.basis_query_learner", "sq.kwise_answer", "sq.kwise_to_unary_reduce",
    "sq.sq_dimension", "sq.sq_answer",
]


@pytest.mark.parametrize("dotted", TRACED_FUNCTIONS)
def test_traced_functions_are_public(dotted):
    # the tracer wraps a module's __all__ functions, or main without one
    short, attr = dotted.split(".")
    mod = importlib.import_module(f"lpn.{short}")
    fn = getattr(mod, attr)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    assert attr in getattr(mod, "__all__", ["main"])


def test_benchmark_reads_arguments_and_fields_by_name():
    for fn in (sq_answer, kwise_answer):
        params = list(inspect.signature(fn).parameters)
        assert params[:4] == ["query", "concept", "dist", "mode"], fn
    for cls in (ExampleSource, ReplaySource):
        params = inspect.signature(cls.draw_batch).parameters
        assert list(params)[1] == "m"
        assert params["packed"].default is False
    for cls, names in ((OnlineReport, {"engine", "processed",
                                       "label_requests"}),
                       (SolverResult, {"examples_used", "per_bit_votes"}),
                       (InstanceData, {"bits"})):
        # a dataclass's instances answer its fields and its properties
        readable = set(cls.__dataclass_fields__) | {
            n for n, v in vars(cls).items() if isinstance(v, property)}
        assert names <= readable, cls
