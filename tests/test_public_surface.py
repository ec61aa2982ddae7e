"""The public surface carries no dead code: every function and class a
layer module lists in `__all__`, and every method and property of a class
that another package module references, has a caller inside the package,
every public field of such a class has a reader, and every defaulted
parameter of a public function has a caller that leaves it; and
`certificates` imports none of the construction code its verifiers must not
call, defines no dataclass and holds no float."""

import ast
import sys
from pathlib import Path

import maldist

SRC = Path(maldist.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute read or bound in `tree`, outside `skip`."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def package_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def unreferenced_public(node_type: type) -> tuple[list[str], list[str]]:
    """The modules that declare `__all__`, and the names in it defined at
    their top level as `node_type` that no module of the package other than
    `__init__` references outside their own definition."""
    trees = package_trees()
    everywhere = {module: referenced_names(tree) for module, tree in trees.items()}
    checked, unused = [], []
    for module, tree in trees.items():
        public = declared_all(tree)
        if public is None:
            continue
        checked.append(module)
        elsewhere = set().union(*(names for m, names in everywhere.items() if m != module))
        defined = {node.name: node for node in tree.body if isinstance(node, node_type)}
        for name in public:
            if name in defined and name not in elsewhere:
                if name not in referenced_names(tree, skip=defined[name]):
                    unused.append(f"{module}.{name}")
    return checked, unused


def test_every_public_function_has_a_caller_in_the_package():
    """Each function in a layer's `__all__` is referenced by name in some
    module of the package other than `__init__`, outside its own definition.

    The package's re-export table does not count as a caller, and a test is
    not one either: a function only tests call belongs in `tests/oracles.py`.
    The check sees only the last link of an unused chain: a function whose
    one caller is itself unused passes until that caller goes.  (Before the
    mu-bar estimator was removed, `mu_bar_estimate` passed because
    `mu_bar_report` called it, and only `mu_bar_report` failed.)
    """
    checked, uncalled = unreferenced_public(ast.FunctionDef)
    assert {"empirical", "envelope", "subspace", "torus", "witness"} <= set(checked)
    assert uncalled == []


def test_every_public_class_has_a_user_in_the_package():
    """Each class in a layer's `__all__` is referenced by name in some module
    of the package other than `__init__`, outside its own definition, by the
    same rules as a function: a class only the tests use (as the SplitMix64
    generator once was in `rng`) belongs in `tests/oracles.py`."""
    checked, unused = unreferenced_public(ast.ClassDef)
    assert {"empirical", "envelope", "subspace", "torus", "witness"} <= set(checked)
    assert unused == []


def test_every_method_of_a_shared_class_has_a_caller_in_the_package():
    """Each method, property and classmethod of a class that some other
    module of the package references is referenced by name somewhere in the
    package outside its own definition.  Dunders are exempt: the language
    calls them.

    As for functions, a test is not a caller, and a name counts wherever it
    appears, so a method shares the fate of any same-named attribute or
    variable.  A method only the tests call belongs in `tests/oracles.py`
    as a function of the object.
    """
    trees = package_trees()
    everywhere = {module: referenced_names(tree) for module, tree in trees.items()}
    shared, uncalled = [], []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in everywhere.items() if m != module))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in elsewhere:
                continue
            shared.append(f"{module}.{cls.name}")
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name not in elsewhere and name not in referenced_names(tree, skip=node):
                    uncalled.append(f"{module}.{cls.name}.{name}")
    assert {"empirical.Residues", "empirical.CellPartition", "envelope.RatioMeasure",
            "envelope.BlockSpec", "torus.TorusInterval", "witness.HitFrequencyWitness"} <= set(shared)
    assert uncalled == []


def attribute_reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The attribute names read (`obj.name` in a load) in `tree`, outside
    `skip`."""
    reads: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def test_every_field_of_a_shared_class_has_a_reader():
    """Each public annotated field of a class that some other module of the
    package references is read as an attribute somewhere in the package, or
    in the benchmark's tracer, outside the class itself.

    A field that is only written (set by the constructor and never read)
    carries a value no caller uses; one only the tests read is a test's
    reference and belongs in `tests/oracles.py`, computed from the fields
    the program does read.  Private fields (a leading underscore) are the
    class's own state and are exempt.
    """
    trees = package_trees()
    tracer = ast.parse(TRACER.read_text(encoding="utf-8"))
    everywhere = {module: referenced_names(tree) for module, tree in trees.items()}
    shared, unread = [], []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in everywhere.items() if m != module))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in elsewhere:
                continue
            shared.append(f"{module}.{cls.name}")
            reads = attribute_reads(tracer).union(
                *(attribute_reads(other, skip=cls) for other in trees.values()))
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                    continue
                name = node.target.id
                if not name.startswith("_") and name not in reads:
                    unread.append(f"{module}.{cls.name}.{name}")
    assert {"empirical.CheckpointScan", "envelope.DominationResult",
            "witness.HistogramWitness"} <= set(shared)
    assert unread == []


def test_certificates_imports_only_the_primitive_layers():
    """The verifiers re-derive every claim without the construction code:
    outside its `TYPE_CHECKING` block (the builders' argument types),
    `certificates` imports from the package only `exact`, whose text forms
    both sides share, and otherwise only the standard library; and no
    function in it imports a module, by statement or by `__import__` or
    `importlib`."""
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    guarded = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"]
    assert len(guarded) == 1
    package, outside = set(), set()
    stack = [node for node in tree.body if node is not guarded[0]]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "maldist":
                package.add(node.module.removeprefix("maldist."))
            else:
                outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    assert package == {"exact"}
    assert "maldist" not in outside
    assert outside <= set(sys.stdlib_module_names) | {"__future__"}
    in_functions = [
        f"{func.name}: line {node.lineno}"
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or (isinstance(node, ast.Name) and node.id in ("__import__", "importlib"))
    ]
    assert in_functions == []


def test_certificates_has_no_dataclass_and_no_float():
    """`certificates` names no `dataclass` (whose import pulls `inspect`
    and `ast` into a `verify` process), writes no float literal and calls
    no `float`: no float may enter a verification path.  (The type `float`
    may be named, as a JSON value a field refuses.)"""
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
        or (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "float")
        or (isinstance(node, ast.Name) and node.id in ("dataclass", "dataclasses"))
        or (isinstance(node, ast.Attribute) and node.attr == "dataclass")
        or (isinstance(node, ast.alias) and node.name.split(".")[0] == "dataclasses")
    ]
    assert found == []


def defaulted_parameters(tree: ast.Module) -> dict[str, list[tuple[int | None, str]]]:
    """The defaulted parameters of each function the module lists in
    `__all__`, and of each `def __init__`/`__new__` of a class listed there
    (under the class's name), as (position, name) pairs: position is the
    index among the arguments a call passes (self or cls left out), None for
    a keyword-only parameter."""
    public = set(declared_all(tree) or ())
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            defs.append((node.name, node.args, 0))
        elif isinstance(node, ast.ClassDef) and node.name in public:
            defs.extend((node.name, item.args, 1) for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__new__"))
    found: dict[str, list[tuple[int | None, str]]] = {}
    for name, args, skip in defs:
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first]
        params += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        if params:
            found.setdefault(name, []).extend(params)
    return found


def omits(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call leaves the parameter to its default; a call that
    unpacks *args or **kwargs counts as leaving it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    keywords = {kw.arg for kw in call.keywords}
    if None in keywords:
        return True
    return name not in keywords and (position is None or position >= len(call.args))


def test_every_default_is_left_by_some_caller_in_the_package():
    """Each defaulted parameter of a function in a layer's `__all__`, or of a
    `def __init__`/`__new__` of a class listed there, is left to its default
    by at least one call in the package.

    A default every caller overrides restates a value its callers own (the
    command line owns every flag default), and may disagree with it; a
    parameter no caller sets is a constant.  Either way the parameter goes:
    with one value in use the value is a constant, with several each caller
    states its own.  A call is matched by name, as `name(...)` or
    `obj.name(...)`, and a test is not a caller.
    """
    trees = package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaulted, always_set = [], []
    for module, tree in trees.items():
        for name, params in defaulted_parameters(tree).items():
            for position, param in params:
                defaulted.append(f"{module}.{name}({param})")
                if not any(omits(call, position, param) for call in calls.get(name, ())):
                    always_set.append(defaulted[-1])
    assert {"certificates.zeroblock_certificate(windows)",
            "envelope.envelope_dominates(tol)"} <= set(defaulted)
    assert always_set == []
