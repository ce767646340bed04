"""The README's blocks against the package.  The "Library use" block
compiles, and every name it imports from droprec exists; every command of
the "CLI" block parses.  Nothing in either runs."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from droprec import cli

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


def cli_commands() -> list[list[str]]:
    """The argument lists of the `droprec` commands in the CLI section's `sh` block,
    each with its backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("droprec ")]


def test_every_cli_command_in_the_readme_parses():
    commands = cli_commands()
    assert commands
    parser = cli._build_parser()
    for argv in commands:  # a usage error exits
        assert parser.parse_args(argv).command == argv[0], argv
