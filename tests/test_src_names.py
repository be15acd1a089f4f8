"""Dead names in the package: an import its module never uses, and a module-level
private (`_name`) function, class or constant that no module of the package reads.
`__init__.py` imports to re-export, so its imports are exempt."""

import ast
from pathlib import Path

import avhgnn

MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(Path(avhgnn.__file__).parent.glob("*.py"))}


def _read_names(tree) -> set:
    """Every name the tree loads, and every attribute it reads off an object."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        used = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_every_module_level_private_name_is_read():
    read = set().union(*map(_read_names, MODULES.values()))
    unread = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []
