"""The package holds only what a command or the benchmark runs."""

import ast
from collections import Counter
from pathlib import Path

import lossy_ring_sfwm

PACKAGE = Path(lossy_ring_sfwm.__file__).resolve().parent
CALLERS = [*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "benchmark").glob("*.py")]

# names that nothing in src/ or benchmark/ calls yet, each with the reason
# it stays
RESERVED = {
    # the strategy-1 JSA oracle and the broken-pair purity check of ROADMAP
    # item 5 evaluate single channel pairs through it
    "jsa.direct_pair_grid",
}


def _names(tree: ast.AST) -> Counter:
    """Identifiers a tree refers to: names, attributes, imported names, and
    string constants other than docstrings (the benchmark traces functions
    by name)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names[node.value] += 1
    return names


def _definitions(tree: ast.Module):
    """(dotted name, node) of every module-level function and class, and of
    every method of those classes; dunder methods, which Python calls
    itself, are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_name_has_a_caller_outside_tests():
    # public and private functions, classes and methods alike: a helper left
    # behind by a refactor has no caller, whatever its name
    everywhere = sum((_names(ast.parse(path.read_text())) for path in CALLERS), Counter())
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for dotted, node in _definitions(ast.parse(path.read_text())):
            # a name used only inside its own definition has no caller
            if everywhere[node.name] - _names(node)[node.name] == 0:
                uncalled.append(f"{path.stem}.{dotted}")
    unreserved = sorted(set(uncalled) - RESERVED)
    assert not unreserved, f"no caller in src/ or benchmark/: {', '.join(unreserved)}"
    assert RESERVED <= set(uncalled)  # a reserved name that gains a caller leaves the list
