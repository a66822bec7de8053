"""The benchmark tracer's wrapping sites exist in the library.

`perfbench/tracing.py` wraps module attributes by name; a renamed function
or import would only show up when a traced benchmark run fails.  These
tests load that file by path, resolve every site, and require each call
site to be called in its module: a name that is imported but no longer
called would leave its per-layer metric silently at zero.  One more test
installs the tracer and checks that the `polynomials.reduce` site counts
every reduction a read of `MleExactResult.triangular` makes.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from toricgm import mle
from toricgm.mle import CountTable, assemble_mle_system

from fixtures import FOUR_CYCLE_COUNTS, four_cycle_matrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_site_is_a_callable_of_its_module():
    tracing = _load_tracing()
    sites = tracing.CALL_SITES + tracing.ENTRY_POINTS
    assert sites
    for module_name, attr, span in sites:
        assert module_name.startswith("toricgm.")
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} is not a callable"
        # the span "<layer>.<function>" names the function the site binds
        layer, function = span.split(".")
        assert getattr(importlib.import_module(f"toricgm.{layer}"),
                       function, None) is fn, f"{span} is not {module_name}.{attr}"


def test_every_call_site_is_called_in_its_module():
    tracing = _load_tracing()
    for module_name, attr, span in tracing.CALL_SITES:
        module = importlib.import_module(module_name)
        tree = ast.parse(Path(module.__file__).read_text())
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert attr in called, f"{module_name} never calls {attr} ({span})"


def test_the_reduce_site_sees_every_pivot_row_of_a_triangular_read():
    tracing = _load_tracing()
    system = assemble_mle_system(four_cycle_matrix(),
                                 CountTable(FOUR_CYCLE_COUNTS))
    tracer = tracing.Tracer()
    with tracer.installed():
        res = mle.solve_mle_exact(system)
        assert tracer.calls["polynomials.reduce"] == 0
        triangular = res.triangular
    assert tracer.calls["polynomials.reduce"] == len(res.echelon) == 8
    assert len(triangular) == 12
