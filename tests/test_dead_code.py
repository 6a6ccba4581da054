"""Every definition of the package is used by the package itself.

Module level: a function or class counts as used when another part of
``src/griduq`` (``__init__.py`` aside) refers to it: as a bare name in its
own module, through ``from .module import name``, or as ``alias.name`` where
``alias`` is bound to that griduq module. Attribute access on any other
object does not count, so ``np.exp`` does not keep an ``exp`` alive.

Class members: a method, property or dataclass field counts as read when
some code of the package reads an attribute of that name, on any object, or
names it in ``getattr``. Dunder methods are Python's to call. The record
classes in ``RECORDS`` are read field by field through ``dataclasses.fields``,
so all of their fields count as read.

Parameters: a parameter of a function or method, required or defaulted,
counts as set when some call in the package passes it a variable, or two
calls pass it two different constants; one that every call gives the same
constant is a constant written as a setting. A parameter also has to be
read by its own function; dunder methods are exempt, as Python fixes their
signatures.
"""

import ast
from pathlib import Path

import griduq

PACKAGE = Path(griduq.__file__).parent

# names kept outside the package's own use, each for a reason
ALLOWED = {
    # the benchmark's reader of every extrapolate map (perfbench/harness.py check_outputs)
    ("export", "read_grid_csv"),
    # the benchmark's loader of a seed's model for its closed MC loop (perfbench/harness.py
    # mc_closed_loop); scoring parses the bytes it keys its held-out predictions on
    ("train", "load_run_params"),
}

# parameters that every package call gives the same constant, each kept for a reason
ALLOWED_UNSET = {
    # the loop-oracle and adjoint tests of the stride-2 phase path set it
    "autodiff.conv2d(stride)",
    # the loop-oracle and adjoint tests of the stride-1 path set it; the U-Net passes 2
    "autodiff.conv_transpose2d(stride)",
    # the benchmark passes main its arguments; the console script leaves them to sys.argv
    "cli.main(argv)",
    # the benchmark passes it positionally and the acceptance tests leave it out
    "data.split(train_frac)",
}

# parameters that their function never reads, each kept for a reason
ALLOWED_UNREAD = {
    # both prediction types share the band(alpha) interface; a CQR band's alpha was fixed
    # when its qhat was calibrated
    "uq.CqrPrediction.band(alpha)",
}

# record classes that the package reads through dataclasses.fields: config.txt and
# train's flags (TrainConfig), runs.log lines (RunRecord), the eval report (MetricsReport)
RECORDS = {("train", "TrainConfig"), ("train", "RunRecord"), ("metrics", "MetricsReport")}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def _definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(mod: str, tree: ast.Module, modules) -> set[tuple[str, str]]:
    """(module, name) pairs that ``tree``, the source of ``mod``, refers to."""
    aliases = {}  # local name -> griduq module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif node.module in modules:
                    refs.add((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((mod, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def unused_names() -> list[str]:
    modules = _modules()
    refs = set().union(*(_references(mod, tree, modules) for mod, tree in modules.items()))
    return [f"{mod}.{name}" for mod, tree in modules.items() for name in _definitions(tree)
            if (mod, name) not in refs and (mod, name) not in ALLOWED]


def _classes(tree: ast.Module) -> list[ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _members(cls: ast.ClassDef) -> list[str]:
    """Methods, properties and fields that a class body defines, dunders aside."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _attributes_read(modules) -> set[str]:
    """Attribute names the package reads: ``obj.name`` outside an assignment's
    target, ``obj.name += ...``, and ``getattr(obj, "name")``."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def unread_members() -> list[str]:
    modules = _modules()
    read = _attributes_read(modules)
    return [f"{mod}.{cls.name}.{name}" for mod, tree in modules.items()
            for cls in _classes(tree) if (mod, cls.name) not in RECORDS
            for name in _members(cls) if name not in read]


def test_every_definition_is_used_by_the_package():
    assert unused_names() == []


def test_every_member_is_read_by_the_package():
    assert unread_members() == []


def test_allowed_names_exist_and_are_otherwise_unused():
    modules = _modules()
    refs = set().union(*(_references(mod, tree, modules) for mod, tree in modules.items()))
    for mod, name in ALLOWED:
        assert name in _definitions(modules[mod]), f"{mod}.{name}"
        assert (mod, name) not in refs, f"{mod}.{name} is used; drop it from ALLOWED"


def _functions(modules) -> dict[str, list[tuple[str, ast.FunctionDef, bool]]]:
    """Every function and method of the package by the name it is called by:
    (module, node, is_method). A class's ``__init__`` is filed under the class name."""
    found: dict[str, list] = {}
    for mod, tree in modules.items():
        methods = set()
        for cls in (c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef):
                    methods.add(id(f))
                    if f.name == "__init__":
                        found.setdefault(cls.name, []).append((mod, f, True))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                found.setdefault(node.name, []).append((mod, node, id(node) in methods))
    return found


def _parameters(fn: ast.FunctionDef,
                is_method: bool) -> list[tuple[int | None, str, ast.expr | None]]:
    """(position, or None when keyword-only; name; default, or None when required) of
    each parameter a caller can pass. Positions count from the first argument a caller
    writes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    skip = 1 if is_method and positional and positional[0].arg in ("self", "cls") else 0
    out = [(i - skip, a.arg, d) for i, (a, d) in enumerate(zip(positional, defaults)) if i >= skip]
    return out + [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]


def _given(call: ast.Call, pos: int | None, param: str, default: ast.expr | None):
    """The value a call gives ``param``: its argument, or the default where the call
    leaves it out. None when the call may pass anything (``*args``, ``**kwargs``) or
    gives a required parameter nothing."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    given = [k.value for k in call.keywords if k.arg == param]
    if pos is not None and pos < len(call.args):
        given.append(call.args[pos])
    return given[0] if given else default


def _constant(value: ast.expr | None) -> bool:
    """A literal, or a module constant named in UPPER_CASE (``TAUS``, ``train.UQ_CQR``);
    None, a value no call names, is not one."""
    if isinstance(value, (ast.Name, ast.Attribute)):
        return (value.id if isinstance(value, ast.Name) else value.attr).isupper()
    try:
        ast.literal_eval(value)
    except (ValueError, TypeError):
        return False
    return True


def constant_parameters(modules: dict[str, ast.Module]) -> list[str]:
    """Parameters, required or defaulted, that every call in ``modules`` gives the same
    constant; ``_given`` says what a call gives, ``_constant`` what counts as one. A
    parameter that some call passes a variable, or two calls two constants, is set.

    Calls are matched by the name they call (``f(...)`` or ``obj.f(...)``), so a
    call counts for every function of that name. A function that is named other
    than as the callee of a call (a handler stored in a dict, say) may be called
    with anything, so its parameters count as set. A defaulted parameter of a
    function that nothing calls only ever holds its default.
    """
    functions = _functions(modules)
    classes = {c.name for tree in modules.values() for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef)}
    calls: dict[str, list[ast.Call]] = {}
    callees = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
                callees.add(id(node.func))
    escaped = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and id(node) not in callees and name in functions and name not in classes):
                escaped.add(name)
    flagged = set()
    for name, defs in functions.items():
        if name in escaped:
            continue
        for mod, fn, is_method in defs:
            for pos, param, default in _parameters(fn, is_method):
                given = [_given(c, pos, param, default) for c in calls.get(name, [])] or [default]
                if all(map(_constant, given)) and len({ast.dump(v) for v in given}) == 1:
                    flagged.add(f"{mod}.{name}({param})")
    return sorted(flagged)


def test_no_parameter_always_gets_one_constant():
    assert [p for p in constant_parameters(_modules()) if p not in ALLOWED_UNSET] == []


def test_allowed_unset_parameters_are_unset():
    assert sorted(ALLOWED_UNSET) == [p for p in constant_parameters(_modules())
                                     if p in ALLOWED_UNSET]


CONSTANT_SNIPPET = """
TAUS = (0.05, 0.5, 0.95)

def quantile_loss(head_out, y, taus, mask):
    return head_out

def step(out, yb, maskb, levels):
    quantile_loss(out, yb, TAUS, maskb)
    quantile_loss(out[:1], yb[:1], TAUS, mask=maskb[:1])
"""


def test_check_flags_a_required_parameter_that_always_gets_one_name():
    assert constant_parameters({"m": ast.parse(CONSTANT_SNIPPET)}) == ["m.quantile_loss(taus)"]


def test_check_counts_a_parameter_passed_a_variable_as_set():
    snippet = CONSTANT_SNIPPET + "    quantile_loss(out, yb, levels, maskb)\n"
    assert constant_parameters({"m": ast.parse(snippet)}) == []


def test_records_are_dataclasses():
    modules = _modules()
    for mod, name in RECORDS:
        [cls] = [c for c in _classes(modules[mod]) if c.name == name]
        decorators = [ast.unparse(d) for d in cls.decorator_list]
        assert any(d.startswith("dataclass") for d in decorators), f"{mod}.{name}"


def unread_parameters(modules: dict[str, ast.Module]) -> list[str]:
    """``module.function(param)``, or the dotted path of a method or nested function, for
    each parameter that its function's body never reads; dunder methods aside."""
    flagged = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}{child.name}"
            visit(child, f"{name}.")
            if child.name.startswith("__") and child.name.endswith("__"):
                continue
            read = {n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
            if isinstance(node, ast.ClassDef) and args and args[0].arg in ("self", "cls"):
                args = args[1:]
            flagged.extend(f"{name}({a.arg})" for a in args if a.arg not in read)

    for mod, tree in modules.items():
        visit(tree, f"{mod}.")
    return sorted(flagged)


def test_every_parameter_is_read_by_its_function():
    assert [p for p in unread_parameters(_modules()) if p not in ALLOWED_UNREAD] == []


def test_allowed_unread_parameters_are_unread():
    assert sorted(ALLOWED_UNREAD) == [p for p in unread_parameters(_modules())
                                      if p in ALLOWED_UNREAD]


def test_check_flags_a_parameter_its_function_never_reads():
    snippet = """
def extrapolate(samples, spec, days):
    def pick(d, unused):
        return samples[d]
    return [pick(d, 0) for d in days]

class Band:
    def band(self, alpha):
        return self.lo

    def __exit__(self, *exc):
        return None
"""
    assert unread_parameters({"m": ast.parse(snippet)}) == [
        "m.Band.band(alpha)", "m.extrapolate(spec)", "m.extrapolate.pick(unused)"]
