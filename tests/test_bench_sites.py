"""The benchmark's trace sites still name callables in ``balmap``.

``perfbench/tracing.py`` wraps each ``SITES`` entry by module and attribute
path; a rename under ``src/`` would otherwise show up only as a failed
``--trace 1`` run.  The file is loaded by path and not edited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_trace_site_resolves_to_a_callable():
    sites = _sites()
    assert sites
    for module, attr, _, _ in sites:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), "%s.%s" % (module, attr)
