"""Every import and every private module-level name in the package is used by the package.

Every public function has a use in the package or the demos.  The
package exports exactly what its re-exported modules export, every
exported name exists, README names every command-line option, and
``python -m gpprec``, README and the ``cli`` docstring name the same
subcommands.  Every package error is a ``GpprecError``, caught as one.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpprec
from gpprec import cli, errors

PACKAGE = Path(gpprec.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def loaded_names(tree):
    """Names the module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def used_names(tree):
    """Names the module reads, reads as attributes, or imports from elsewhere."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def module_level_names(tree):
    """Names bound by the module's top-level definitions and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    # The package's __init__ imports to re-export, so it is not checked.
    tree = parse(path)
    used = loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def test_every_private_module_level_name_is_used():
    trees = {path.name: parse(path) for path in MODULES}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert unused == []


# Public functions that nothing in the package or the demos calls, as
# ``module.function``, each with its reason.
UNCALLED_PUBLIC = {
    # Each reads a file `simulate` writes; the tests check the CLI's
    # output through them.
    "serialization.parse_ordering",
    "serialization.parse_samples",
    "serialization.parse_sites",
    "serialization.parse_truth",
}


def test_every_public_function_has_a_program_use():
    # A public module-level function must be named somewhere in the package
    # outside its own def, or in a demo; a SUITES entry names its suite.
    # The names in ``__all__`` are strings, so exporting is not a use.
    trees = {path: parse(path) for path in MODULES + DEMOS}
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            used.update(name for name in used_names(node) if name != own)
    uncalled = {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in used
    }
    assert sorted(uncalled - UNCALLED_PUBLIC) == []
    assert sorted(UNCALLED_PUBLIC - uncalled) == []


REEXPORTED = (
    "cholesky", "errors", "estimator", "hierarchy", "lattice", "linalg", "matching", "truth",
)


def test_package_exports_the_union_of_its_modules_exports():
    modules = [importlib.import_module(f"gpprec.{name}") for name in REEXPORTED]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(gpprec.__all__) == sorted(union)


# Importing __main__ would run the command line.
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name
)
def test_every_exported_name_exists(path):
    name = "gpprec" if path.name == "__init__.py" else f"gpprec.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_readme_names_every_cli_option():
    # Every option of every subcommand is documented, as `--name` in README.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme)) == []


def test_subcommands_agree_across_entry_point_readme_and_docstring():
    # ``python -m gpprec`` runs __main__, which no in-process test imports.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "gpprec", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    expected = set(commands.choices)
    assert expected == {"simulate", "estimate", "scaling-study", "verify"}
    listed = re.search(r"\{([\w,-]+)\}", run.stdout).group(1)
    assert set(listed.split(",")) == expected
    bullets = set(re.findall(r"^\* `([a-z-]+)`:", README, flags=re.M))
    assert bullets == expected
    summary = cli.__doc__.splitlines()[0].partition(":")[2]
    assert {word.strip(" .") for word in summary.split(",")} == expected


# Stale references: every name the docs give the package must still exist.
PACKAGE_MODULES = sorted(p.stem for p in MODULES if p.stem not in ("__init__", "__main__"))
ROLE = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")
SPAN = re.compile(r"`+([^`]+)`+")
# ``module.name``, ``gpprec.module.name`` or ``gpprec.module``, maybe with call arguments.
DOTTED = re.compile(
    r"(?:gpprec\.)?(%s)((?:\.\w+)+)(?:\(.*\))?|gpprec\.(\w+)" % "|".join(PACKAGE_MODULES)
)
README = (PACKAGE.parents[1] / "README.md").read_text()


def resolves(module_name, dotted):
    """Whether the attribute path ``dotted`` exists on the module ``module_name``."""
    target = importlib.import_module(module_name)
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def docstrings():
    """``(module name, docstring, parameter names)`` of every docstring in the package."""
    for path in MODULES:
        if path.name == "__main__.py":
            continue  # importing it would run the command line
        module = "gpprec" if path.name == "__init__.py" else f"gpprec.{path.stem}"
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    params = set()
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
                    yield module, doc, params


def dotted_literals(text, params=frozenset()):
    """``(module name, attribute path)`` of each backquoted package reference in ``text``.

    A bare ``truth.dim`` whose head is one of ``params`` names an
    argument's attribute, not a module's, and is skipped.
    """
    for span in SPAN.finditer(text):
        literal = span.group(1).strip()
        match = DOTTED.fullmatch(literal)
        if match is None:
            continue
        if match.group(3):
            yield "gpprec", match.group(3)
        elif literal.startswith("gpprec.") or match.group(1) not in params:
            yield f"gpprec.{match.group(1)}", match.group(2)[1:]


def test_docstring_roles_name_existing_attributes():
    # A role's target is absolute (``gpprec.truth.sample_blocks``) or
    # relative to the module whose docstring holds it.
    stale = []
    for module, doc, _ in docstrings():
        for target in ROLE.findall(doc):
            home, path = module, target
            if target.startswith("gpprec."):
                head, _, path = target[len("gpprec."):].partition(".")
                home = f"gpprec.{head}"
            if not resolves(home, path):
                stale.append(f"{module}: {target}")
    assert stale == []


def test_module_name_literals_name_existing_attributes():
    # ``matching.padded_tiles`` in README or a docstring names a function
    # that exists, so a deleted function leaves no such reference behind.
    literals = [("README", ref) for ref in dotted_literals(README)]
    assert literals, "README names no module.name; the pattern has gone stale"
    literals += [(m, ref) for m, doc, params in docstrings() for ref in dotted_literals(doc, params)]
    stale = [
        f"{where}: {module}.{path}"
        for where, (module, path) in literals
        if not resolves(module, path)
    ]
    assert stale == []


def test_readme_names_only_what_the_package_holds():
    # A backquoted snake_case name in README (a function, a field, a
    # config key or a suite) is a word of the package's source, so a
    # deleted function's bare name cannot linger there.
    words = set(re.findall(r"\w+", "\n".join(path.read_text() for path in MODULES)))
    names = set(re.findall(r"`([a-z]\w*_\w*)(?:\([^`]*\))?`", README))
    assert sorted(names - words) == []


# Every private name one module of the package imports from another, as
# ``importer<-module._name``: each is a coupling past a module's public API.
PRIVATE_IMPORTS = {
    "cholesky<-errors._check_dimension",
    "cholesky<-errors._check_integer",
    "cholesky<-linalg._as_rows",
    "cholesky<-linalg._row_parts",
    "cli<-truth._check_capacity",
    "estimator<-errors._check_integer",
    "estimator<-errors._is_real",
    "estimator<-linalg._as_rows",
    "estimator<-linalg._as_square_sym",
    "estimator<-linalg._gated_factor",
    "estimator<-linalg._row_parts",
    "estimator<-linalg._symmetrize_in_place",
    "lattice<-errors._check_dimension",
    "lattice<-errors._check_integer",
    "linalg<-errors._check_integer",
    "matching<-errors._check_dimension",
    "matching<-errors._is_real",
    "matching<-estimator._band_tiles",
    "matching<-linalg._as_rows",
    "matching<-linalg._fills_ahead",
    "matching<-linalg._philox",
    "matching<-linalg._row_parts",
    "truth<-errors._check_integer",
    "truth<-errors._is_real",
    "truth<-linalg._fills_ahead",
    "truth<-linalg._philox",
}


def test_cross_module_private_imports_are_listed():
    # A new ``from .module import _name`` fails until it is listed, and an
    # entry whose import is gone fails until it is dropped.
    found = {
        f"{path.stem}<-{node.module}.{alias.name}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert sorted(found - PRIVATE_IMPORTS) == []
    assert sorted(PRIVATE_IMPORTS - found) == []


def thread_names(tree):
    """Every module and ``module.name`` the module imports, and every ``name.attribute`` it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"


def test_only_linalg_owns_the_fill_thread():
    # The fill thread, its futures and their queue live in linalg alone, so
    # a new user of the thread goes through linalg._fills_ahead.
    owners = {
        path.stem
        for path in MODULES
        for name in thread_names(parse(path))
        if name.split(".")[0] in ("concurrent", "threading") or name == "collections.deque"
    }
    assert owners == {"linalg"}


# Defaulted parameters that no call in the package or the demos sets, as
# ``module.function: parameter``, each with its reason.
UNSET_DEFAULTS = {
    # The lattice-reduction scales of the paper's estimator, which no CLI
    # route runs yet; only they read the config.
    "cholesky.estimate_scales: cloud",
    "cholesky.estimate_scales: config",
    "cholesky.estimate_scales: seed",
    # Tests and embedding programs pass their own argument list.
    "cli.main: argv",
}


def defaulted_parameters(tree):
    """``(callee name, parameter, position)`` of every parameter with a default.

    A method is called by its own name, ``__init__`` by its class's, and
    ``position`` counts the arguments a call passes by position, so a
    method's ``self`` is not counted; keyword-only parameters have
    position ``None``.
    """
    owners = {
        id(method): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
    }
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        owner = owners.get(id(function))
        static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
        shift = 1 if owner and not static else 0
        name = owner if function.name == "__init__" else function.name
        args = function.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, index - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def test_every_defaulted_parameter_is_set():
    # A default that only the default itself ever supplies is a setting
    # with one value: it should be a constant.  A parameter passes when some
    # call in the package or the demos passes it, by keyword or position.
    callers = MODULES + DEMOS
    calls = {}
    for path in callers:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(function, parameter, position):
        for call in calls.get(function, ()):
            if any(k.arg in (parameter, None) for k in call.keywords):
                return True
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            if position is not None and (starred or len(call.args) > position):
                return True
        return False

    unset = {
        f"{path.stem}.{function}: {parameter}"
        for path in MODULES
        for function, parameter, position in defaulted_parameters(parse(path))
        if not is_set(function, parameter, position)
    }
    assert sorted(unset - UNSET_DEFAULTS) == []
    assert sorted(UNSET_DEFAULTS - unset) == []


def test_every_package_error_is_a_gpprec_error():
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), errors.GpprecError), name
    assert issubclass(errors.InvalidInput, ValueError)


def names_package_error(node):
    return getattr(node, "id", getattr(node, "attr", None)) in errors.__all__


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_except_names_a_tuple_of_package_errors(path):
    # ``except GpprecError`` catches every package error, and a new error
    # class joins it; a tuple of the classes, written out or bound to a
    # name, misses each class added after it.
    tree = parse(path)
    tuples = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        and any(names_package_error(element) for element in node.value.elts)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    handlers = [
        ast.unparse(node.type)
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and (
            isinstance(node.type, ast.Name) and node.type.id in tuples
            or isinstance(node.type, ast.Tuple)
            and any(names_package_error(element) for element in node.type.elts)
        )
    ]
    assert handlers == []
