"""The package's public names, resolved from their modules on first use."""

import importlib

import pytest

import subuniform


def test_every_public_name_resolves_to_its_module_object():
    assert len(subuniform.__all__) == len(set(subuniform.__all__)) == 53
    for name in subuniform.__all__:
        value = getattr(subuniform, name)
        if name != "__version__":
            module = importlib.import_module(f"subuniform.{subuniform._MODULE_OF[name]}")
            assert value is getattr(module, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from subuniform import *", namespace)
    assert set(subuniform.__all__) <= namespace.keys()
    assert set(subuniform.__all__) <= set(dir(subuniform))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subuniform.no_such_name
    assert not hasattr(subuniform, "chi2")
    with pytest.raises(ImportError):
        exec("from subuniform import no_such_name", {})


def test_every_module_level_name_is_public_or_used_in_the_package():
    # a function, class or constant that no other code in src/ names is an
    # orphan unless it is public: listed under its own module in _MODULE_OF,
    # the package's one list of public names, or the entry point cli.main.
    # Delete an orphan, or make it the test oracle it serves.
    import ast
    from pathlib import Path

    trees = {path.name: ast.parse(path.read_text())
             for path in Path(subuniform.__file__).parent.glob("*.py")}
    defined, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            names = []
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)]
            defined += [(module, n) for n in names if not n.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                if ref not in names:  # a function calling itself does not count
                    used.add(ref)
    listed = {(f"{home}.py", name) for name, home in subuniform._MODULE_OF.items()}
    listed.add(("cli.py", "main"))
    assert [f"{module}: {name}" for module, name in defined
            if name not in used and (module, name) not in listed] == []


def test_no_environment_variable_picks_a_code_path():
    # the package has no environment knob: what changes a run is a flag or a
    # parameter.  The one reader of the environment is cli._import_numpy,
    # which sets the BLAS thread variables (cli._BLAS_THREAD_VARS) the user
    # left unset for numpy's import and removes them again
    import ast
    from pathlib import Path

    access = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    found = []
    for path in sorted(Path(subuniform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "cli.py":
            (setter,) = [f for f in tree.body
                         if isinstance(f, ast.FunctionDef) and f.name == "_import_numpy"]
            allowed = {id(node) for node in ast.walk(setter)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in access and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
