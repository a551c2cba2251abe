"""The names perfbench's tracer wraps: a refactor that renames one of them
breaks ``perfbench/run.py --trace 1`` and nothing else.  And every name a
module exports: a deleted function left in ``__all__`` breaks only
``from ... import *``, and an export that only the tests use is dead code;
so is a private helper or a class member that only the tests read.  And
the package's start-up: importing the CLI loads no mpmath, which only the
tests use, as a reference.  And its memory: no cache grows without
bound."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import twobridge
from twobridge import kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_exist():
    """Every function the tracer names exists on its twobridge module (the
    kernels entry on the active backend)."""
    for modname, fnames in _tracing().LAYERS.items():
        owner = (kernels.active_kernel if modname == "kernels"
                 else importlib.import_module("twobridge." + modname))
        for fname in fnames:
            assert callable(getattr(owner, fname, None)), "%s.%s" % (modname, fname)


def test_explore_takes_eps_share_tenth():
    """The tracer reads the kernel's eps share as its tenth argument to
    split scan nodes from sum nodes."""
    params = list(inspect.signature(kernels.python_kernel.explore).parameters)
    assert params[9] == "eps_share"


def test_exported_names_exist():
    """Every name in each twobridge module's ``__all__`` is defined there."""
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module("twobridge." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "%s.%s" % (info.name, name)


def _defined_names(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _names_read():
    """The names code in twobridge reads, as a name or as ``.name``,
    outside the top-level statement that defines them.  The sources are
    parsed, so a docstring, a comment or an import does not count."""
    used = set()
    for path in Path(twobridge.__file__).resolve().parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = _defined_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


def test_exported_names_are_used():
    """Code in twobridge reads every name in each module's ``__all__``
    outside that name's own definition (``_names_read``)."""
    used = _names_read()
    unused = []
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module("twobridge." + info.name)
        unused += ["%s.%s" % (info.name, name)
                   for name in getattr(module, "__all__", ())
                   if name not in used]
    assert not unused, unused


def test_private_names_are_used():
    """Code in twobridge reads every private module-level name, function,
    class or constant, outside that name's own definition
    (``_names_read``): a helper that a deletion leaves behind fails here."""
    used = _names_read()
    unused = []
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module("twobridge." + info.name)
        for stmt in ast.parse(Path(module.__file__).read_text()).body:
            unused += ["%s.%s" % (info.name, name)
                       for name in sorted(_defined_names(stmt))
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    assert not unused, unused


# Class members that no code in the package reads, each kept for the
# reason given.
UNREAD_MEMBERS = {
    # the exact reference that the tests check the printed float against
    "GapSystem.covered_length",
    # the root-selection report, which no output prints yet
    "MarkoffEvaluation.selection",
    "RootCandidateReport.passed",
}


def _class_members(cls_node):
    """(name, definition node) of each public method, property, class-level
    annotated field and ``self.`` attribute assigned in a method."""
    for stmt in cls_node.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    yield node.attr, node
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt


def _attribute_reads(tree):
    """The names read as ``.name`` in ``tree``, with multiplicity."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def test_class_members_are_used():
    """Code in twobridge reads every public member of each of its classes
    as ``.name`` outside that member's own definition, unless it is listed
    in UNREAD_MEMBERS.  Attributes of exception classes, which exist for
    handlers, and methods that override a base-class method are not
    checked.  The match is by name alone, so a member that shares its name
    with an attribute read elsewhere (say a field ``r``, when some other
    object's ``.r`` is read) passes unread."""
    package = Path(twobridge.__file__).resolve().parent
    reads = sum((_attribute_reads(ast.parse(path.read_text()))
                 for path in package.glob("*.py")), Counter())
    unread = []
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module("twobridge." + info.name)
        tree = ast.parse(Path(module.__file__).read_text())
        for cls_node in (stmt for stmt in tree.body
                         if isinstance(stmt, ast.ClassDef)):
            cls = getattr(module, cls_node.name)
            if issubclass(cls, BaseException):
                continue
            for name, node in _class_members(cls_node):
                if name.startswith("_") or any(
                        hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
                own = _attribute_reads(node)[name]
                key = "%s.%s" % (cls_node.name, name)
                if reads[name] - own <= 0 and key not in UNREAD_MEMBERS:
                    unread.append(key)
    assert not unread, sorted(set(unread))


def test_cli_import_leaves_out_mpmath():
    """``import twobridge.cli`` in a fresh interpreter loads every layer
    and no mpmath."""
    src = Path(twobridge.__file__).resolve().parents[1]
    code = ("import sys; import twobridge.cli; "
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_argument_caches_are_bounded():
    """Every functools cache in twobridge, at module level or on a class,
    over a function that takes arguments has a finite maxsize: an unbounded
    one grows with the distinct requests a process serves."""
    caches = {}
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module("twobridge." + info.name)
        for value in vars(module).values():
            members = vars(value).values() if inspect.isclass(value) else ()
            for fn in (value, *members):
                if hasattr(fn, "cache_parameters"):
                    caches["%s.%s" % (fn.__module__, fn.__qualname__)] = fn
    assert {"twobridge.cli.build_parser", "twobridge.cli._evaluation",
            "twobridge.cli._rendered"} <= set(caches)
    for name, fn in caches.items():
        if inspect.signature(fn).parameters:
            assert fn.cache_parameters()["maxsize"] is not None, name
