"""The names perfbench's tracer wraps must exist on the library.

``perfbench/run.py`` lists the traced functions per module in ``LAYERS``
and counts ``ElementSet.__post_init__`` calls.  A refactor that renames or
moves one of them would make ``--trace 1`` fail or miss calls, so these
tests read ``LAYERS`` from the file (without importing it) and resolve
every name the way the tracer does.  The query checks read ``members``
off the sets the library returns, so that surface is pinned here too.
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


def test_sets_perfbench_reads_have_frozenset_members():
    # queries.check builds ElementSet(n, members) for the reference route;
    # queries.plain and run.tracing compare .members with frozensets.
    S = sglab.validate([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    A = sglab.ElementSet(3, frozenset({1, 2}))
    sets = [
        A,
        sglab.subsets.parse_subset("{1,2}", 3),
        sglab.subsets.separator(S, A),
        sglab.subsets.idealizer(S, A),
        *sglab.core.power_set_chain(S).sets,
    ]
    for X in sets:
        assert type(X.members) is frozenset, X
        assert X.members == frozenset(x for x in range(3) if x in X), X
    assert sets[0].members == sets[1].members == frozenset({1, 2})
