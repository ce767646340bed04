"""The README's "Library use" block against the package: it compiles, and
every name it imports from droprec exists.  Nothing in it runs."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_compiles_and_imports_only_names_droprec_has():
    tree = ast.parse(library_use_block(), "README.md")
    compile(tree, "README.md", "exec")
    imports = []  # (module, name), name None for `import module`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imports += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [(alias.name, None) for alias in node.names]
    assert imports and all(module.split(".")[0] == "droprec" for module, _ in imports)
    for module, name in imports:
        assert name is None or hasattr(importlib.import_module(module), name), f"{module}.{name}"
