"""The public API list of the package."""

import ast
import inspect

import b3rep


def test_every_exported_name_resolves():
    assert len(set(b3rep.__all__)) == len(b3rep.__all__)
    assert [name for name in b3rep.__all__ if not hasattr(b3rep, name)] == []


def test_every_public_import_is_exported():
    # a name __init__ imports but does not list is a stale or forgotten export
    tree = ast.parse(inspect.getsource(b3rep))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in imported
                  if not name.startswith("_") and name not in b3rep.__all__) == []
