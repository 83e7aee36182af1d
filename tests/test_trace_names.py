"""Every function the benchmark's per-layer trace wraps exists under the
name ``perfbench/layertrace.py`` gives it.

The trace finds its targets by name, so a rename in the package would
otherwise surface only when the benchmark runs.  A method must be defined
in its class's own ``__dict__``, which is where the trace rebinds it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load_layertrace()

#: the traced functions, and the promotion counter's ``ExtScalar.of``
TARGETS = sorted(layertrace.FUNCTIONS.values()) + [("exactnum", "ExtScalar.of")]


@pytest.mark.parametrize("module_name, path", TARGETS,
                         ids=["%s.%s" % target for target in TARGETS])
def test_traced_name_resolves_on_the_package(module_name, path):
    module = importlib.import_module(layertrace.PACKAGE + "." + module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path, None))
