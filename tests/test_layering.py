"""Which modules may know the run settings: the library takes plain
arguments, and only the recipes and the command line read RunSettings."""
import ast
from pathlib import Path

import gridcast

# besides config.py itself, which declares them
SETTINGS_READERS = {"experiments.py", "cli.py"}


def _imports_config(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("config", "gridcast.config"):
                return True
            if node.module in (None, "gridcast") and any(a.name == "config" for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name == "gridcast.config" for a in node.names):
            return True
    return False


def test_only_the_recipes_and_the_cli_import_the_settings():
    sources = sorted(Path(gridcast.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    importers = {
        p.name for p in sources if _imports_config(ast.parse(p.read_text(encoding="utf-8")))
    }
    assert importers == SETTINGS_READERS, f"only {sorted(SETTINGS_READERS)} may import config"


def test_the_check_sees_every_import_form():
    for line in [
        "from .config import RunSettings",
        "from gridcast.config import RunSettings",
        "from . import config",
        "from gridcast import config",
        "import gridcast.config",
    ]:
        assert _imports_config(ast.parse(line)), line
    assert not _imports_config(ast.parse("from .configuration import x"))
