"""Structural rules, checked with ast. Which modules may know the run
settings: the library takes plain arguments, and only the recipes and the
command line read RunSettings. Which module knows the byte layout of
grid files and checkpoints: only container.py imports zlib or struct.
Which module starts workers: only forecast.py forks (the breakout curve's
jobs), and no module imports multiprocessing, concurrent.futures or
threading.
Which module turns a kernel size and filter shape into k_h and k_w: only
config.py passes them by keyword.
Which classes keep state between calls: no method of nn's layers (its
classes with a forward) or of tcn.TemporalBlock assigns an attribute of
self outside __init__, so layers hold parameters only.
Which options the package keeps: a parameter or dataclass field with a
default stays only if a caller outside the tests (the package itself or
any file under perfbench/) leaves it out. ALLOWED_OPTIONS lists them, and
each entry outside the command line's flags must be left out by at least
one call in the package or under perfbench/. Which names the package
keeps: every public module-level function and class has a reference
outside the tests and __init__.py, except the acceptance-criterion tools.
The benchmark calls only names and keyword arguments that the package
still has, and leaves out only parameters that still have a default. No
reply roll path in forecast.py or the d-sweep assembles the features of
a whole state or builds a full-length state: it holds the last h rows of
its grids and builds only the window its model reads. And the adaptive
evaluation still reaches the names whose meters the benchmark reads."""
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
# only forecast.py starts workers

WORKER_MODULES = {"multiprocessing", "concurrent", "threading", "_thread"}
FORKS = {"fork", "forkpty"}


def _starts_workers(tree: ast.Module) -> bool:
    """Whether tree forks (os.fork, or fork imported from os) or imports a
    module that starts processes or threads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in WORKER_MODULES for a in node.names):
                return True
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            root = node.module.split(".")[0]
            if root in WORKER_MODULES or (root == "os" and any(a.name in FORKS
                                                               for a in node.names)):
                return True
        if (isinstance(node, ast.Attribute) and node.attr in FORKS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
    return False


def test_only_the_breakout_curve_forks():
    sources = sorted(Path(gridcast.__file__).parent.glob("*.py"))
    starters = {p.name for p in sources
                if _starts_workers(ast.parse(p.read_text(encoding="utf-8")))}
    assert starters == {"forecast.py"}, (
        "only forecast.py may fork, and no module imports multiprocessing, "
        "concurrent.futures or threading")


def test_the_worker_check_sees_every_form():
    for line in ["import threading", "import multiprocessing as mp", "import os, threading",
                 "from multiprocessing import Pool", "import concurrent.futures",
                 "from concurrent.futures import ProcessPoolExecutor",
                 "from concurrent import futures", "import _thread", "pid = os.fork()",
                 "from os import fork", "fork = os.fork", "os.forkpty()"]:
        assert _starts_workers(ast.parse(line)), line
    for line in ["import os", "os.getpid()", "from os import getpid", "fork()",
                 "from .threading import x", "import threadpoolctl", "self.fork()"]:
        assert not _starts_workers(ast.parse(line)), line


# ---------------------------------------------------------------------------
# the kernel-shape rule lives in config.py

KERNEL_DIMS = {"k_h", "k_w"}


def _passes_kernel_dims(tree: ast.Module) -> bool:
    """Whether a call in tree passes k_h= or k_w= by keyword."""
    return any(
        isinstance(node, ast.Call) and any(k.arg in KERNEL_DIMS for k in node.keywords)
        for node in ast.walk(tree)
    )


def test_only_the_settings_choose_a_kernel_shape():
    sources = sorted(Path(gridcast.__file__).parent.glob("*.py"))
    callers = {
        p.name for p in sources if _passes_kernel_dims(ast.parse(p.read_text(encoding="utf-8")))
    }
    assert callers == {"config.py"}, "only RunSettings.model_config may set k_h or k_w"


def test_the_kernel_check_sees_the_keyword_form():
    for line in ["ModelConfig(kind='reply', k_h=3, k_w=1)", "replace(base, k_w=k)",
                 "f(g(k_h=k))"]:
        assert _passes_kernel_dims(ast.parse(line)), line
    for line in ["TCNStack(rng, c, f, config.k_h, config.k_w, b, dt)", "k_h = 3",
                 "f(kernel=3)", "def f(k_h=3): ..."]:
        assert not _passes_kernel_dims(ast.parse(line)), line


# ---------------------------------------------------------------------------
# layers hold parameters only

NN_LAYERS = {"ConvLayer", "BatchNormLayer", "PReLULayer", "DenseLayer"}


def _layer_classes(tree: ast.Module) -> set[str]:
    """The module-level classes in tree that define a forward."""
    return {
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "forward" for f in node.body)
    }


def _assigns_self(tree: ast.Module, classes: set[str]) -> list[str]:
    """Class.method for each method of the given classes, __init__ aside,
    that assigns or deletes an attribute of its first parameter, or an item
    of one (self.memo[key] = ...): as an assignment, augmented, annotated or
    tuple target, or through setattr or delattr."""
    out = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in classes):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__" or not fn.args.args:
                continue
            me = fn.args.args[0].arg
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    owner = node.value.value if isinstance(node.value, ast.Attribute) else node.value
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    owner = node.value
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                        "setattr", "delattr") and node.args:
                    owner = node.args[0]
                else:
                    continue
                if isinstance(owner, ast.Name) and owner.id == me:
                    out.append(f"{cls.name}.{fn.name}")
                    break
    return out


def test_layers_hold_parameters_only():
    """The layers, the blocks and stacks built of them and both models:
    what backward reads lives in the tape their caller hands forward."""
    package = Path(gridcast.__file__).parent
    trees = {name: ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("nn", "tcn", "models")}
    layers = _layer_classes(trees["nn"])
    assert layers >= NN_LAYERS  # the rule sees every layer
    stacks = _layer_classes(trees["tcn"])
    assert stacks == {"TemporalBlock", "TCNStack"}
    model_classes = _layer_classes(trees["models"])
    assert model_classes == {"ThreadArrivalModel", "ReplyCountModel"}
    stateful = (_assigns_self(trees["nn"], layers) + _assigns_self(trees["tcn"], stacks)
                + _assigns_self(trees["models"], model_classes | {"_ModelBase"}))
    assert stateful == [], "an object keeps state between calls; callers keep what backward reads"


def test_the_layer_check_sees_every_assignment_form():
    source = """
class Layer:
    def __init__(self, w):
        self.w = w
    def forward(self, x):
        self.w.grad += x
        self.w[0] = x
        other.x = x
        self._x = x
        return x
    def backward(me, up):
        a, me.cache = up
        me.n += 1
    def annotated(self):
        self.k: int = 1
    def indirect(self):
        setattr(self, "k", 1)
    def clear(self):
        del self.w
    def keeps(self, tapes):
        self._tapes = tapes
    def plans(self, rows):
        self._cones[rows] = rows
    def reads(self):
        return self.w.grad
    def fills(self, tape, x):
        tape[0] = x
        self.w.grad[0] = x

class Plain:
    def step(self):
        self.x = 1
"""
    tree = ast.parse(source)
    assert _layer_classes(tree) == {"Layer"}
    assert _assigns_self(tree, {"Layer"}) == [
        "Layer.forward", "Layer.backward", "Layer.annotated", "Layer.indirect", "Layer.clear",
        "Layer.keeps", "Layer.plans",
    ]


# ---------------------------------------------------------------------------
# a roll builds only the window its model reads

PACKAGE = Path(gridcast.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the closed loop (adaptive_forecasts) is not among them: its gap step, once
# per simulated thread, reads the whole state's features (ForecastState.features),
# and its reply rolls go through roll_reply_rows and roll_until.
ROLL_PATHS = ("roll_reply_rows", "roll_reply_row", "roll_until", "breakout_classify",
              "breakout_curve", "of", "roll", "_self_fed_span_mae")
# what builds a full-length state: a roll cuts its Lockstep from the grid
FULL_STATES = {"from_grid", "crop", "build_breakout_state"}


def _joined(*names: str) -> ast.Module:
    """The package's modules of those file names as one module, so that a
    walk follows calls from one into another."""
    body = [stmt for name in names
            for stmt in ast.parse((PACKAGE / name).read_text(encoding="utf-8")).body]
    return ast.Module(body=body, type_ignores=[])


def _roll_tree() -> ast.Module:
    """forecast.py, experiments.py and evaluate.py, so that a walk from the
    d-sweep or the adaptive evaluation follows its calls into the Lockstep,
    and a model call reaches the baselines that stand in for models."""
    return _joined("forecast.py", "experiments.py", "evaluate.py")


def _bound(fn: ast.AST) -> set[str]:
    """The names a function binds itself: its parameters and those of the
    functions and lambdas inside it, and every name it assigns, imports,
    defines or catches."""
    nodes = list(ast.walk(fn))
    return ({n.arg for n in nodes if isinstance(n, ast.arg)}
            | {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
            | {n.name for n in nodes[1:]
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
            | {(a.asname or a.name).split(".")[0] for n in nodes
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
            | {n.name for n in nodes if isinstance(n, ast.ExceptHandler) and n.name})


def _reaching(tree: ast.Module, roots, targets) -> list[str]:
    """The roots whose bodies reference one of targets, directly or
    through a function or method that tree defines. A bare name counts
    unless the function binds it itself (a parameter or local of the
    same name is no call); an attribute always counts, and follows every
    method of its name, since any of them may be the one called."""
    defs: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)

    def used(name: str) -> set[str]:
        out = set()
        for fn in defs[name]:
            nodes, bound = list(ast.walk(fn)), _bound(fn)
            out |= {n.id for n in nodes if isinstance(n, ast.Name) and n.id not in bound}
            out |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        return out

    def reaches(name: str, seen: set[str]) -> bool:
        seen.add(name)
        names = used(name)
        return bool(names & set(targets)) or any(
            reaches(n, seen) for n in names if n in defs and n not in seen)

    return [root for root in roots if reaches(root, set())]


def test_no_roll_path_assembles_the_features_of_a_whole_state():
    tree = _roll_tree()
    assert _reaching(tree, ROLL_PATHS, {"assemble_features"}) == [], (
        "a roll reads grid.window_features only")
    # ForecastState.features stays as the full view the gap prediction reads,
    # and the walk sees it, from the adaptive evaluation too
    assert _reaching(tree, ["features", "adaptive_forecast", "evaluate_adaptive"],
                     {"assemble_features"}) == ["features", "adaptive_forecast",
                                                "evaluate_adaptive"]


def test_no_roll_path_builds_a_full_length_state():
    tree = _roll_tree()
    assert _reaching(tree, ROLL_PATHS, FULL_STATES) == [], (
        "a roll holds the last h rows of its grids, cut from the grid")
    # the walk sees the prefix states that single verdicts are built from,
    # and follows the d-sweep into the Lockstep's window
    assert _reaching(tree, ["build_breakout_state"], FULL_STATES) == ["build_breakout_state"]
    assert _reaching(tree, ["_self_fed_span_mae"], {"window_features"}) == ["_self_fed_span_mae"]


def test_the_adaptive_evaluation_reaches_the_metered_serving_names():
    """perfbench's serving check runs a one-start evaluate_adaptive and an
    adaptive_forecast on every workload, and its forecast.roll_reply_row
    and forecast.ForecastState.features meters must read above zero. A
    change that routes those rolls or the gap step around the metered
    names fails here, not only in the benchmark's own tests."""
    tree = _roll_tree()
    assert _reaching(tree, ["evaluate_adaptive"], {"roll_reply_row"}) == ["evaluate_adaptive"], (
        "evaluate_adaptive must roll through forecast.roll_reply_row")
    assert _reaching(tree, ["adaptive_forecast"], {"features"}) == [
        "adaptive_forecast"], "adaptive_forecast's gap step must read ForecastState.features"


def test_the_roll_check_follows_calls_and_methods():
    source = """
def roll(state):
    return helper(state)

def helper(state):
    return state.features(())

class State:
    def features(self, channels):
        return grid.assemble_features(self, channels)

def direct(g):
    return assemble_features(g)

def clean(state):
    return window_features(state.counts, state.n_rows, state.arrival_rows, state.widths, ())

class Baseline:
    def predict(self, features, helper=None):
        for roll in features:
            crop = [direct for direct in roll]
        return features, helper, crop

def shadowed(state):
    import helper
    from grid import direct as roll
    try:
        features = lambda direct: direct
    except ValueError as crop:
        pass
    return features, helper, roll, crop

def calls_predict(model):
    return model.predict(None)
"""
    tree = ast.parse(source)
    assert _reaching(tree, ["roll", "helper", "features", "direct", "clean"],
                     {"assemble_features"}) == ["roll", "helper", "features", "direct"]
    assert _reaching(tree, ["roll", "clean"], {"crop", "features"}) == ["roll"]
    # a parameter, loop variable, comprehension variable, import, lambda
    # parameter or caught exception that shares a function's name is no call
    assert _reaching(tree, ["predict", "shadowed", "calls_predict"],
                     {"assemble_features", "crop"}) == []
    # a method is followed through every definition of its name
    tree.body.append(ast.parse("class Other:\n    def predict(self):\n        return crop()").body[0])
    assert _reaching(tree, ["calls_predict"], {"crop"}) == ["calls_predict"]


# ---------------------------------------------------------------------------
# the package's options

# The options (parameters and dataclass fields with a default) that the
# package keeps. An option that only tests leave out does not belong here.
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
    "models.ModelConfig.channels",
    "models.ModelConfig.loss_mode",
    *(f"models.TrainConfig.{name}"
      for name in ("lr", "weight_decay", "epochs", "batch_size", "seed")),
    "grid.ThreadCascade.reply_times",
    "grid.Grid.dropped_events",
    "grid.assemble_features(channels)",
    "grid.gap_columns(hi)",
    "forecast.ForecastState.from_grid(thread_times)",
    "forecast.breakout_classify(cascade_id)",
    "forecast.breakout_classify(start_duration)",
    "evaluate.evaluate_thread_arrival(mode)",
    "evaluate.evaluate_adaptive(checkpoints)",
    "evaluate.evaluate_adaptive(n_intervals)",
    # the package's own calls leave these out
    "nn.Parameter.step_count",
    "nn.Parameter.of(decay)",
    "nn.mse_loss(weight)",
    "evaluate._report(label)",
    "evaluate._report(stddev)",
    "cli._settings(base)",
    "cli.build_parser.sub(parent)",
    "cli.main(argv)",
    # the command line's defaults: each field is a flag that a command may leave out
    *(f"config.RunSettings.{name}" for name in (
        "d", "t0", "rows", "channels", "window_h", "window_w", "n_filters", "kernel_size",
        "filter_shape", "n_blocks", "loss_mode", "lr", "weight_decay", "epochs", "batch_size",
        "seed", "train_frac", "lambda_thread", "mu_reply", "theta", "horizon",
        "breakout_fraction", "breakout_boost", "n_threads", "n_intervals", "n_start_points",
        "span_seconds", "context_cols", "horizon_intervals", "search_filters",
        "search_kernels", "search_blocks",
    )),
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


def test_the_package_keeps_only_the_options_its_callers_use():
    sources = sorted(Path(gridcast.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    options = [
        opt for p in sources for opt in _options(ast.parse(p.read_text(encoding="utf-8")), p.stem)
    ]
    assert sorted(set(options) - ALLOWED_OPTIONS) == [], "options outside the budget"
    assert len(options) <= len(ALLOWED_OPTIONS) == 66


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


def _package_trees(package: Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}


def _bench_trees(bench: Path) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(bench.rglob("*.py"))]


def _signatures(node: ast.AST, prefix: str, cls: str | None = None) -> dict:
    """For every function, method and dataclass under node, keyed by the
    qualified name its options carry: (the name a call uses, the class a
    call must go through or None, the parameters a call passes by
    position). A dataclass or __init__ is called by its class's name; a
    classmethod only through its class; a bound self or cls is dropped."""
    out = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            if _is_dataclass(child):
                out[name] = (child.name, None, tuple(
                    st.target.id for st in child.body if isinstance(st, ast.AnnAssign)))
            out.update(_signatures(child, name, child.name))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            decorators = {getattr(d, "id", None) for d in child.decorator_list}
            params = tuple(a.arg for a in child.args.posonlyargs + child.args.args)
            if cls is not None and "staticmethod" not in decorators:
                params = params[1:]
            if cls is not None and child.name == "__init__":
                out[name] = (cls, None, params)
            else:
                out[name] = (child.name, cls if "classmethod" in decorators else None, params)
            out.update(_signatures(child, name))
        else:
            out.update(_signatures(child, prefix, cls))
    return out


def _calls(node: ast.AST, cls: str | None = None):
    """(callee name, the name it is called through or None, call) for every
    call under node. Inside a class's methods, cls stands for that class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                yield (cls if func.id == "cls" and cls else func.id), None, child
            elif isinstance(func, ast.Attribute):
                via = getattr(func.value, "id", None) or getattr(func.value, "attr", None)
                yield func.attr, (cls if via == "cls" and cls else via), child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _leaves_out(call: ast.Call, params: tuple[str, ...], param: str) -> bool:
    """Whether the call leaves param out. One that unpacks *args or
    **kwargs passes everything."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return False
    return param not in params[: len(call.args)] and param not in {k.arg for k in call.keywords}


def _unused_options(options, modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """The options that no call in callers leaves out, matched to their
    definitions in modules (by file stem)."""
    signatures = {}
    for stem, tree in modules.items():
        signatures.update(_signatures(tree, stem))
    calls = [call for tree in callers for call in _calls(tree)]
    unused = []
    for option in sorted(options):
        qual, param = option[:-1].split("(") if option.endswith(")") else option.rsplit(".", 1)
        if qual not in signatures:
            unused.append(option)
            continue
        callee, through, params = signatures[qual]
        if not any(name == callee and through in (None, via) and _leaves_out(call, params, param)
                   for name, via, call in calls):
            unused.append(option)
    return unused


def test_every_option_is_left_out_by_a_caller():
    # the command line's flags are left out by whichever command does not set them
    options = {opt for opt in ALLOWED_OPTIONS if not opt.startswith("config.RunSettings.")}
    modules = _package_trees(PACKAGE)
    unused = _unused_options(options, modules, [*modules.values(), *_bench_trees(PERFBENCH)])
    assert unused == [], "every caller passes these: drop their defaults"


def test_the_option_liveness_check_sees_every_call_form():
    source = """
from dataclasses import dataclass

def f(a, b=1, *, c=2): ...

@dataclass
class D:
    x: int
    y: int = 0
    z: int = 0

    @classmethod
    def of(cls, x, y=0):
        return cls(x, y)

class Layer:
    def __init__(self, a, b=0): ...
    def run(self, a, b=0): ...

class Other:
    @classmethod
    def of(cls, x, y=0): ...

def g(fs):
    f(0, 1, c=3)
    f(*fs)
    D(1, 2, z=3)
    Other.of(1)
    Layer(1).run(1, b=2)
    D.of(1, 2)
    def sub(a, b=0): ...
    sub(a=1, b=2)
"""
    tree = ast.parse(source)
    options = ["m.f(b)", "m.f(c)", "m.D.y", "m.D.z", "m.D.of(y)", "m.Layer.__init__(b)",
               "m.Layer.run(b)", "m.g.sub(b)", "m.gone(x)"]
    # f(*fs) passes everything, so f(b) and f(c) stay unused; cls(x, y)
    # leaves D's z out; Other.of is not D.of; Layer(1) leaves b out
    assert _unused_options(options, {"m": tree}, [tree]) == sorted([
        "m.f(b)", "m.f(c)", "m.D.y", "m.D.of(y)", "m.Layer.run(b)", "m.g.sub(b)", "m.gone(x)"])


# ---------------------------------------------------------------------------
# the package's names

# the acceptance-criterion tools: public for the tests that run them
CRITERION_TOOLS = {"nn.grad_check", "tcn.causality_probe", "tcn.receptive_field"}


def _unreferenced_names(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """The public module-level functions and classes in modules (by file
    stem, __init__ left out) that nothing references, as a name or an
    attribute, outside their own definition, in modules or in others."""
    modules = {stem: tree for stem, tree in modules.items() if stem != "__init__"}
    statements = [st for tree in (*modules.values(), *others) for st in tree.body]
    referenced = [
        (st, {n.id for n in ast.walk(st) if isinstance(n, ast.Name)}
         | {n.attr for n in ast.walk(st) if isinstance(n, ast.Attribute)})
        for st in statements
    ]
    return sorted(
        f"{stem}.{st.name}"
        for stem, tree in modules.items() for st in tree.body
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not st.name.startswith("_")
        and not any(st.name in names for other, names in referenced if other is not st)
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = _package_trees(PACKAGE)
    assert _unreferenced_names(modules, _bench_trees(PERFBENCH)) == sorted(CRITERION_TOOLS), (
        "a public name that only the tests use: delete it or make it private "
        "(or, for a criterion tool that gained a caller, drop it from CRITERION_TOOLS)")


def test_the_name_check_sees_references_and_skips_definitions():
    lib = ast.parse("""
from .other import used_by_import_only

def called(): ...
def recursive(n): return recursive(n - 1)
class Attr: ...
class Annotated: ...
def _private(): ...
def user(x: Annotated) -> None:
    called()
    return mod.Attr
""")
    init = ast.parse("from .lib import recursive\nrecursive(1)")
    bench = ast.parse("import gridcast\ngridcast.lib.user(0)")
    assert _unreferenced_names({"lib": lib, "__init__": init}, [bench]) == ["lib.recursive"]
    assert _unreferenced_names({"lib": lib}, []) == ["lib.recursive", "lib.user"]


# ---------------------------------------------------------------------------
# the names the benchmark calls


def _package_references(tree: ast.Module):
    """(dotted name, call or None) for every gridcast.<module>.<name>...
    chain in tree reached through `from gridcast import <module>`, with
    the ast.Call made on it, if any. Chains through a dunder attribute
    (such as a traced function's __wrapped__) are skipped."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gridcast"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    refs = []
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if (chain and isinstance(base, ast.Name) and base.id in modules
                and not any(name.startswith("__") for name in chain)):
            refs.append((".".join([modules[base.id], *chain]), calls.get(id(node))))
    return refs


def _resolve(dotted: str):
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"gridcast.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


def _unbound(obj, call: ast.Call) -> str | None:
    """Why the call's arguments do not bind to obj's signature (an unknown
    keyword, too many positionals, or a parameter without a default that
    the call leaves out), or None if they do. A call that unpacks *args
    or **kwargs is not checked."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return None
    try:
        inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
    except TypeError as exc:
        return str(exc)
    return None


def test_every_name_the_benchmark_calls_resolves():
    sources = sorted(PERFBENCH.rglob("*.py"))
    assert {p.name for p in sources} >= {"workloads.py", "test_tracing.py"}
    n_calls = 0
    for path in sources:
        where = path.relative_to(PERFBENCH.parent)
        for dotted, call in _package_references(ast.parse(path.read_text(encoding="utf-8"))):
            try:
                obj = _resolve(dotted)
            except AttributeError:
                raise AssertionError(f"{where} uses {dotted}, which is gone") from None
            if call is not None:
                n_calls += 1
                problem = _unbound(obj, call)
                assert problem is None, f"{where} calls {dotted}: {problem}"
    assert n_calls >= 60  # the walk sees the benchmark's calls


def test_the_reference_walk_sees_chains_and_keywords():
    source = """
from gridcast import grid, models as m
grid.slice_segments(t, g, 1, 1, grid.TargetKind.THREAD_GAP, col_range=(0, 2))
m.TrainConfig(lr=1.0).epochs
grid.assemble_features.__wrapped__(g)
other.thing(x=1)
"""
    refs = dict(_package_references(ast.parse(source)))
    assert [k.arg for k in refs["grid.slice_segments"].keywords] == ["col_range"]
    assert [k.arg for k in refs["models.TrainConfig"].keywords] == ["lr"]
    assert "grid.TargetKind.THREAD_GAP" in refs and "other.thing" not in refs
    assert refs["grid.assemble_features"] is None
    assert not any("__wrapped__" in name for name in refs)
    try:
        _resolve("grid.Segment")
    except AttributeError:
        pass
    else:
        raise AssertionError("a name the package no longer has resolved")


def test_the_call_check_sees_missing_and_unknown_arguments():
    def check(source: str):
        (dotted, call), = _package_references(ast.parse(f"from gridcast import grid\n{source}"))
        return _unbound(_resolve(dotted), call)

    assert check("grid.gap_columns(g, 0)") is None
    assert check("grid.gap_columns(g, lo=0, hi=3)") is None
    assert "lo" in check("grid.gap_columns(g)")
    assert "span" in check("grid.gap_columns(g, 0, span=3)")
    assert check("grid.gap_columns(g, 0, 1, 2)") is not None
    assert check("grid.gap_columns(*args)") is None
