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


# The SGD hot path, by module: the functions and methods (``Class.method``,
# ``*`` for every class that defines it, as the kernels and their base do)
# whose numpy calls run every iteration or epoch, and ``_lockstep``'s
# iteration loop.  numpy converts a Python float operand on every call, so
# these take read-only 0-d arrays built once instead.
HOT_PATH = {
    "optim": ["adadelta_step", "_lockstep"],
    "model": ["score_terms"],
    "families": ["*.b", "*.b_prime", "*.b_and_mean"],
    "dropout": ["NoiseSpec.draw"],
    "pmle": ["DiffPenalty.gradient"],
}


def is_float(node, constants):
    """A float literal or a module-level float constant, signed or not."""
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return ((isinstance(node, ast.Constant) and type(node.value) is float)
            or (isinstance(node, ast.Name) and node.id in constants))


def float_constants(trees):
    """module -> the names it binds at top level, or imports from another
    module of the package, to a float literal."""
    own = {}
    for module, tree in trees.items():
        own[module] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                             else zip(target.elts, node.value.elts))
                    own[module] |= {t.id for t, v in pairs if is_float(v, ())}
    names = {}
    for module, tree in trees.items():
        names[module] = set(own[module])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names[module] |= {a.asname or a.name for a in node.names
                                  if a.name in own.get(node.module, ())}
    return names


def hot_nodes(tree, dotted):
    """The definitions ``dotted`` names in ``tree``; for ``_lockstep``, its
    ``for it in range(...)`` loop."""
    nodes = [tree]
    for name in dotted.split("."):
        nodes = [n for parent in nodes for n in parent.body
                 if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and name in ("*", n.name)]
    if dotted == "_lockstep":
        return [n for n in ast.walk(nodes[0]) if isinstance(n, ast.For)
                and isinstance(n.target, ast.Name) and n.target.id == "it"]
    return nodes


def float_operands(node, constants):
    """``line: source`` of each float operand of a binary operation, an
    augmented assignment or a positional argument of an ``np.*`` call."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.BinOp):
            operands = [n.left, n.right]
        elif isinstance(n, ast.AugAssign):
            operands = [n.value]
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"):
            operands = n.args
        else:
            continue
        found += [f"{op.lineno}: {ast.unparse(op)}" for op in operands
                  if is_float(op, constants)]
    return found


def test_the_sgd_hot_path_takes_no_python_float_operand():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    constants = float_constants(trees)
    found = {}
    for module, names in HOT_PATH.items():
        for dotted in names:
            nodes = hot_nodes(trees[module], dotted)
            assert nodes, f"{module}.{dotted} is gone: update HOT_PATH"
            found.update((f"{module}.{dotted}:{node.lineno}", operands) for node in nodes
                         if (operands := float_operands(node, constants[module])))
    assert found == {}
