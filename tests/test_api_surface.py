"""Every public top-level function and class of the package has a caller.

A public name that no code in ``src/dropglm`` reads outside its own
definition, and that the benchmark in ``perfbench/`` does not read, is either
a reference the tests check the program against, listed in ``REFERENCES``
with the test or criterion that uses it, or code that only duplicates other
code and should go.  The list is checked both ways, so a name that gains a
caller leaves it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dropglm").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# module.name -> the test or acceptance criterion that uses it.
REFERENCES = {
    "dropout.mc_dropout_objective": "criterion 1: the Monte-Carlo oracle of the penalty",
    "dropout.exact_penalty_gap": "criterion 2: the Jensen gate",
    "dropout.remainder_poisson": "criterion 4: the Taylor remainders",
    "dropout.remainder_binomial_bound": "criterion 4: the Taylor remainders",
    "model.fisher_blocks": "criterion 5: the Fisher identities",
    "dropout.penalized_objective": "criterion 6: the gradient gate",
    "dropout.penalized_objective_grad": "criterion 6: the gradient gate",
    "pmle.pmle_objective": "criterion 6 and tests/test_pmle.py",
    "pmle.pmle_objective_grad": "criterion 6 and tests/test_pmle.py",
    "families.def_log_density": "tests/test_families.py and the loglik check of "
                                "tests/test_model.py",
    "model.unit_deviance": "tests/test_model.py: the w_alpha ~ 1 approximation",
}


def reads(tree, skip=None):
    """What a module reads: bare names, and ``module.name`` for attributes of
    the package's modules it imports, less the nodes inside the definition
    ``skip``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "dropglm"):
            modules.update((a.asname or a.name, a.name) for a in node.names)
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def traced_layers(tree):
    """``module.name`` of every function the benchmark's tracer wraps: its
    ``LAYERS`` table names each by strings, not by a read."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["LAYERS"])
    return {f"{module.split('.')[-1]}.{attr.split('.')[0]}"
            for _, module, attr in ast.literal_eval(table)}


def uncalled():
    """module.name of every public definition that nothing reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    bench = {f"perfbench.{path.stem}": ast.parse(path.read_text()) for path in BENCH}
    read = {module: reads(tree) for module, tree in (trees | bench).items()}
    read["perfbench.tracer"] |= traced_layers(bench["perfbench.tracer"])
    found = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, r in read.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                callers = elsewhere | reads(tree, skip=node)
                if not {node.name, f"{module}.{node.name}"} & callers:
                    found.add(f"{module}.{node.name}")
    return found


def test_every_public_name_has_a_caller_or_a_listed_reference():
    assert sorted(uncalled() - set(REFERENCES)) == []


def test_every_listed_reference_still_lacks_a_caller():
    assert sorted(set(REFERENCES) - uncalled()) == []


def test_only_families_reads_a_kernel_name():
    # Each family decision lives on its kernel: no other module branches on,
    # or looks up by, an attribute called ``name``.
    readers = sorted(path.name for path in SOURCES if path.name != "families.py"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr == "name")
    assert readers == []
