"""Every name that the benchmark's layer tracer wraps resolves against the package.

`bench/tracing.py` wraps each `(module, attribute)` of its TARGETS list by
name, so a renamed or deleted function would make every traced benchmark run
fail.  The list is read from the file's source, without importing it.
"""
import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def tracing_targets():
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS list")


def test_every_target_resolves():
    targets = tracing_targets()
    assert targets
    missing = []
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"bench/tracing.py wraps names the package lacks: {missing}"
