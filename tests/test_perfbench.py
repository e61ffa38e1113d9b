"""The benchmark tracer's view of the package still matches the package.

perfbench/tracer.py names the layers it wraps by module and attribute, and
its work counters read call arguments by parameter name. Those files change
only with the benchmark itself, so a rename in the package must not leave a
name they look up dangling.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Read(Exception):
    def __init__(self, key):
        super().__init__(key)
        self.key = key


class _ArgumentSpy(dict):
    """Bound arguments that stop a counter at the first name it reads."""

    def __getitem__(self, key):
        raise _Read(key)


def test_traced_layers_resolve_with_the_parameters_their_counters_read():
    layers = _load_tracer().LAYERS
    read = set()
    for name, (module_name, path, counter) in layers.items():
        target = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{path} is gone"
            target = getattr(target, part)
        assert callable(target), name
        if counter is None:
            continue
        try:
            counter(_ArgumentSpy(), None)
        except _Read as exc:
            params = inspect.signature(target).parameters
            assert exc.key in params, f"{name} lost its parameter {exc.key!r}"
            read.add(exc.key)
        except (AttributeError, TypeError):
            pass  # the counter reads only the result
    assert read == {"N", "size", "reps", "log", "series"}


def test_environment_probe_finds_the_kernel_flag():
    kernels = importlib.import_module("kingman._kernels")
    assert isinstance(kernels.HAVE_NUMBA, bool)
