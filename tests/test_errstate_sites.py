"""Where numpy's error state is set.

Each site below enters one np.errstate around a whole phase: the episode
draw, the inner run, one step's transposed products, the estimate, the
trainer's read of the inner-final loss, the meta step and the evaluation's
read of the validation losses. Code
under them reports a non-finite value through its own finiteness check, so
it sets no error state of its own. A change that needs another site adds it
here and says why, as it would for a count in tests/cost_model.json.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bilevelopt"

SITES = [
    "data.sample_task_batch",
    "hypergrad.compute_hypergradient_batch",
    "inner.run_inner_batch",
    "inner.step_transposed_jvps",
    "meta_opt.meta_step",
    "trainer._train_rounds",
    "trainer.meta_evaluate",
]


def _errstate_functions(node, function="<module>"):
    """The innermost enclosing function of each call of errstate under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "errstate":
            yield function
    for child in ast.iter_child_nodes(node):
        yield from _errstate_functions(child, function)


def _errstate_sites():
    """module.function of every call of errstate in the package, one per call."""
    return sorted(
        f"{path.stem}.{function}"
        for path in SRC.glob("*.py")
        for function in _errstate_functions(ast.parse(path.read_text(), filename=str(path)))
    )


def test_numpy_error_state_is_set_only_at_the_phase_entry_points():
    assert _errstate_sites() == SITES
