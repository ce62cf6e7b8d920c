"""No dead code in the package: every import is used, every definition has a caller.

The scan is syntactic.  A name counts as referenced where it appears as a
bare name that no enclosing function binds, as an attribute, or as an
identifier-shaped string constant (the benchmark names the functions it
traces by string).  An attribute of an outside module (``np.zeros``,
``scipy.fft.rfftn``) is no reference: its root name is bound by an import
from outside ``ekwave``.  A function binds its arguments and its assignment
targets, so a local that shares a definition's name does not call it.  A
definition needs a reference from the program, that is from a module of
``src/ekwave`` or ``perfbench``; one that only ``tests`` reference is
test-only code, unless it is one of the named exceptions below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ekwave"
CALLERS = [PACKAGE, ROOT / "perfbench"]
# definitions kept for the tests alone, each with its reason
TEST_ONLY = {
    "rhs_primitive": "oracle: the primitive (rho, u) tendencies, computed "
                     "without the codec, that rhs_extended is checked against",
    "bilinear_B_exact": "oracle: the double-sum bilinear form that bilinear_B's "
                        "quadrature is checked against",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_in(func):
    """The locals of ``func``: its arguments and its assignment targets,
    leaving out those of the functions nested in it."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def outside_imports(tree):
    """Names that imports of modules outside ``ekwave`` bind in ``tree``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] != "ekwave"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "ekwave":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def attribute_root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def references(tree):
    names = set()
    outside = outside_imports(tree)
    # each node with the locals of the functions that enclose it
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, FUNCTIONS):
            local = local | bound_in(node)
        if isinstance(node, ast.Name):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = attribute_root(node)
            if not (isinstance(root, ast.Name) and root.id in outside
                    and root.id not in local):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
    return names


def definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.lineno


def test_no_unused_module_level_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        used = references(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, f"unused imports: {unused}"


def referenced_from(roots):
    used = set()
    for root in roots:
        for path in root.rglob("*.py"):
            used |= references(parse(path))
    return used


def test_every_definition_is_referenced():
    used = referenced_from(CALLERS)
    tested = referenced_from([ROOT / "tests"])
    uncalled, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, lineno in definitions(parse(path)):
            defined.add(qualname)
            name = qualname.rsplit(".", 1)[-1]
            # dunder methods are called by the language, not by name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used and (qualname not in TEST_ONLY or name not in tested):
                uncalled.append(f"{path.name}:{lineno} {qualname}")
    assert not uncalled, f"definitions the program never references: {uncalled}"
    # every exception still names a definition the program does not call
    assert set(TEST_ONLY) <= defined
    assert not {q.rsplit(".", 1)[-1] for q in TEST_ONLY} & used
