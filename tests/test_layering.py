"""Four structural rules, checked with ast. Which modules may know the run
settings: the library takes plain arguments, and only the recipes and the
command line read RunSettings. Which module knows the byte layout of
grid files and checkpoints: only container.py imports zlib or struct.
Which options the nn stack keeps: a parameter or dataclass field with a
default stays only if a caller outside the tests leaves it out. And the
benchmark's workloads call only names and keyword arguments that the
package still has."""
import ast
import importlib
import inspect
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


# ---------------------------------------------------------------------------
# the byte layout lives in container.py

BYTE_MODULES = {"zlib", "struct"}


def _imports_byte_modules(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in BYTE_MODULES for a in node.names):
                return True
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in BYTE_MODULES:
                return True
    return False


def test_only_the_container_imports_zlib_or_struct():
    sources = sorted(Path(gridcast.__file__).parent.glob("*.py"))
    importers = {
        p.name for p in sources
        if _imports_byte_modules(ast.parse(p.read_text(encoding="utf-8")))
    }
    assert importers == {"container.py"}, "only container.py may read or write file bytes"


def test_the_byte_check_sees_every_import_form():
    for line in ["import zlib", "import struct as s", "import os, zlib",
                 "from zlib import crc32", "from struct import pack"]:
        assert _imports_byte_modules(ast.parse(line)), line
    for line in ["import structlog", "from .struct import x", "from . import zlib_notes"]:
        assert not _imports_byte_modules(ast.parse(line)), line


# ---------------------------------------------------------------------------
# the nn stack's options

# The options (parameters and dataclass fields with a default) that the
# nn stack keeps. An option that only tests pass does not belong here.
STACK_MODULES = ("nn", "tcn", "models")
ALLOWED_OPTIONS = {
    # perfbench calls these without the argument, or builds the configs from their defaults
    "nn.conv2d_causal_dilated(bias)",
    "nn.conv2d_causal_dilated(tau)",
    "nn.ConvLayer.__init__(tau)",
    "nn.ConvLayer.__init__(dtype)",
    "nn.ConvLayer.__init__(name)",
    "models.build_model(seed)",
    "models.build_model(dtype)",
    "models.ThreadArrivalModel.predict_gap(col_index)",
    "models.ReplyCountModel.predict_next_row(row_index)",
    *(f"models.ModelConfig.{name}"
      for name in ("channels", "window", "n_filters", "k_h", "k_w", "n_blocks", "loss_mode")),
    *(f"models.TrainConfig.{name}"
      for name in ("lr", "weight_decay", "epochs", "batch_size", "seed")),
    # the package's own calls leave these out
    "nn.Parameter.step_count",
    "nn.Parameter.name",
    "nn.Parameter.decay",
    "nn.Parameter.of(name)",
    "nn.Parameter.of(decay)",
    "nn.mse_loss(weight)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
        for d in node.decorator_list
    )


def _options(node: ast.AST, prefix: str) -> list[str]:
    """Qualified names of the parameters and dataclass fields with a default under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            if _is_dataclass(child):
                out += [f"{name}.{st.target.id}" for st in child.body
                        if isinstance(st, ast.AnnAssign) and st.value is not None]
            out += _options(child, name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            out += [f"{name}({a.arg})" for a in positional[len(positional) - len(args.defaults):]]
            out += [f"{name}({a.arg})" for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
            out += _options(child, name)
        else:
            out += _options(child, prefix)
    return out


def test_the_nn_stack_keeps_only_the_options_its_callers_use():
    root = Path(gridcast.__file__).parent
    options = [
        opt
        for module in STACK_MODULES
        for opt in _options(ast.parse((root / f"{module}.py").read_text(encoding="utf-8")), module)
    ]
    assert sorted(set(options) - ALLOWED_OPTIONS) == [], "options outside the budget"
    assert len(options) <= len(ALLOWED_OPTIONS) == 27


def test_the_option_count_sees_every_form():
    source = """
from dataclasses import dataclass

def f(a, b=1, *, c, d=2):
    g = lambda x=0: x
    def inner(y=3): ...

@dataclass(frozen=True)
class D:
    x: int
    y: int = 0
    def m(self, z=None): ...

class Plain:
    w: int = 0
"""
    assert sorted(_options(ast.parse(source), "m")) == sorted([
        "m.f(b)", "m.f(d)", "m.f.<lambda>(x)", "m.f.inner(y)", "m.D.y", "m.D.m(z)",
    ])


# ---------------------------------------------------------------------------
# the names the benchmark calls

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _package_references(tree: ast.Module):
    """(dotted name, keyword names or None) for every gridcast.<module>.<name>...
    chain in tree reached through `from gridcast import <module>`, with the
    keywords of each call made on it."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gridcast"
        for alias in node.names
    }
    called = {id(node.func): [k.arg for k in node.keywords if k.arg]
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    refs = []
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in modules:
            refs.append((".".join([modules[base.id], *chain]), called.get(id(node))))
    return refs


def _resolve(dotted: str):
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"gridcast.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


def test_every_name_the_benchmark_calls_resolves():
    refs = _package_references(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
    assert len(refs) >= 30  # the walk sees the workloads' calls
    for dotted, keywords in refs:
        try:
            obj = _resolve(dotted)
        except AttributeError:
            raise AssertionError(f"perfbench/workloads.py uses {dotted}, which is gone") from None
        if keywords:
            params = inspect.signature(obj).parameters
            missing = [k for k in keywords if k not in params]
            assert not missing, f"perfbench/workloads.py passes {missing} to {dotted}"


def test_the_reference_walk_sees_chains_and_keywords():
    source = """
from gridcast import grid, models as m
grid.slice_segments(t, g, 1, 1, grid.TargetKind.THREAD_GAP, col_range=(0, 2))
m.TrainConfig(lr=1.0).epochs
other.thing(x=1)
"""
    refs = dict(_package_references(ast.parse(source)))
    assert refs["grid.slice_segments"] == ["col_range"]
    assert refs["models.TrainConfig"] == ["lr"]
    assert "grid.TargetKind.THREAD_GAP" in refs and "other.thing" not in refs
    try:
        _resolve("grid.Segment")
    except AttributeError:
        pass
    else:
        raise AssertionError("a name the package no longer has resolved")
