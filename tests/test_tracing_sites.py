"""The benchmark tracer's wrapping sites exist in the library.

`perfbench/tracing.py` wraps module attributes by name; a renamed function
or import would only show up when a traced benchmark run fails.  This test
loads that file by path and resolves every site.
"""

import importlib
import importlib.util
from pathlib import Path

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
