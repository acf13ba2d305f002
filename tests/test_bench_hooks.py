"""The benchmark's trace hooks name functions that exist.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its WRAPPED
table by ``getattr`` on ``skeintails``; a renamed or deleted function would
first show up as a failed traced run.  This reads the table and resolves
every entry, without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_resolves():
    for _name, mod_name, attr, _work in _load_spans().WRAPPED:
        obj = importlib.import_module(f"skeintails.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr} is not callable"
