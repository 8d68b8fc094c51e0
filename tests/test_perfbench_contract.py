"""The names perfbench's tracer wraps must exist on the library.

``perfbench/run.py`` lists the traced functions per module in ``LAYERS``
and counts ``ElementSet.__post_init__`` calls.  A refactor that renames or
moves one of them would make ``--trace 1`` fail or miss calls, so these
tests read ``LAYERS`` from the file (without importing it) and resolve
every name the way the tracer does.
"""

import ast
from pathlib import Path

import sglab
import sglab.cli  # perfbench imports it too; `import sglab` alone does not

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _layers() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no LAYERS")


def test_every_traced_name_resolves_on_the_library():
    layers = _layers()
    assert layers
    for layer, names in layers.items():
        module = getattr(sglab, layer)
        for attr in names:
            if "." in attr:
                # Traced on its class, read from the class dict.
                cls, meth = attr.split(".")
                assert callable(getattr(module, cls).__dict__[meth]), attr
            else:
                assert callable(getattr(module, attr)), f"{layer}.{attr}"


def test_element_set_keeps_its_own_post_init():
    assert callable(sglab.core.ElementSet.__dict__["__post_init__"])
