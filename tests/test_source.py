import ast
import importlib
import inspect
import pathlib
import tokenize

import pytest

import vibroniq

SOURCES = sorted(pathlib.Path(vibroniq.__file__).parent.glob("*.py"))
VBENCH = sorted((pathlib.Path(__file__).parents[1] / "vbench").glob("*.py"))
TOOLS = sorted((pathlib.Path(__file__).parents[1] / "tools").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_stays_below_the_token_step(path):
    """Compiling a module of more than 8192 parser tokens (counted without
    comments, blank lines and the encoding) takes about 0.5 MiB more peak
    memory, and the benchmark compiles every module from source; a
    code-free pad that took circuits.py past the step moved soft-4d's
    end-to-end figures by +7 % (CHANGES.md, FOUND 48 and FOUND 63)."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as f:
        count = sum(tok.type not in skip for tok in tokenize.tokenize(f.readline))
    assert count < 8192


def _bound_names(tree: ast.AST) -> tuple[dict, list]:
    """The objects the `from vibroniq import ...` and `from vibroniq.<module>
    import ...` lines of a module bind, by local name, and the names they
    import that the package lacks."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "vibroniq":
            for alias in node.names:
                if node.module == "vibroniq":
                    bound[alias.asname or alias.name] = importlib.import_module(f"vibroniq.{alias.name}")
                elif hasattr(module := importlib.import_module(node.module), alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    return bound, missing


def _dotted(node: ast.AST) -> tuple[str | None, list]:
    """The root name and attribute path of a dotted expression."""
    path = []
    while isinstance(node, ast.Attribute):
        path.insert(0, node.attr)
        node = node.value
    return (node.id if isinstance(node, ast.Name) else None), path


def test_every_package_name_the_benchmark_reads_resolves():
    """vbench/ is frozen: the benchmark runs its files as they are, so a
    change that drops or renames a name they use fails the benchmark run,
    not Tier-1; the scripts under tools/ run outside Tier-1 too. This reads
    only their sources, parsed and not run: every attribute they read off a
    package module or name resolves, and each direct call binds its keywords
    (and its count of positional arguments) to the callee's signature."""
    missing, keywords, n_refs = [], set(), 0
    for source in VBENCH + TOOLS:
        tree = ast.parse(source.read_text(), str(source))
        bound, unbound = _bound_names(tree)
        missing += unbound
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if id(node) in inner or not (isinstance(node, ast.Attribute) or id(node) in calls):
                continue
            root, path = _dotted(node)
            if root not in bound:
                continue
            n_refs += 1
            name, obj = ".".join([root, *path]), bound[root]
            try:
                for attr in path:
                    obj = getattr(obj, attr)
            except AttributeError:
                missing.append(f"{source.name}:{node.lineno} {name}")
                continue
            call = calls.get(id(node))
            if call is None:
                continue
            named = {k.arg: None for k in call.keywords if k.arg is not None}
            starred = any(isinstance(a, ast.Starred) for a in call.args) or len(named) < len(call.keywords)
            keywords.update((name, k) for k in named)
            try:
                inspect.signature(obj).bind_partial(*[None] * (0 if starred else len(call.args)), **named)
            except TypeError as exc:
                missing.append(f"{source.name}:{node.lineno} {name}({', '.join(named)}): {exc}")
    assert not missing
    # the scan sees the calls it is there for
    assert n_refs >= 30
    assert {("circuits.wavepacket_to_state", "n_extra"), ("circuits.QubitLayout", "ancilla"),
            ("soft.propagate", "observers")} <= keywords


def test_every_span_name_the_tracer_reads_resolves():
    """vbench/tracing.py finds its per-layer spans by name: the string
    literals it passes to ix.named(name, ...) and ix.kids(i, name). A span
    is named after the function it wraps, so a name whose package function
    was renamed or moved matches no span and its metric silently reads 0
    (CHANGES.md, FOUND 20 and FOUND 66). Each literal that starts with a
    package module resolves on it by getattr; f-strings are skipped."""
    layers = {path.stem for path in SOURCES}
    tracing = pathlib.Path(__file__).parents[1] / "vbench" / "tracing.py"
    names, missing = set(), []
    for node in ast.walk(ast.parse(tracing.read_text(), str(tracing))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("named", "kids")):
            continue
        args = node.args[node.func.attr == "kids":]
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            if args[0].value.split(".")[0] in layers:
                names.add(args[0].value)
    for name in sorted(names):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"vibroniq.{layer}")
        try:
            for attr in path:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert not missing
    # the scan sees the spans it is there for
    assert {"soft.populations", "soft.boundary_maxima", "soft.energy", "circuits.Circuit.controlled"} <= names
    assert len(names) >= 15
