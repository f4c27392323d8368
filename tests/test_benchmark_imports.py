"""The benchmark under perfbench/ calls swapfact by name.  A rename in the
package must fail here, in the test suite, rather than in a benchmark run,
so every swapfact name the benchmark's sources import, and every attribute
they read from such a name, must resolve, and every call of such a name or
attribute must bind to its signature."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def swapfact_bindings(tree):
    """Local name -> (module, name or None) per swapfact import; name is
    None for a plain `import swapfact...`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "swapfact":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "swapfact":
                    bound[alias.asname or alias.name] = (alias.name, None)
    return bound


def benchmark_references(source: str):
    """(module, name or None, attributes read from it) per swapfact import;
    name is None for a plain `import swapfact...`."""
    tree = ast.parse(source)
    bound = swapfact_bindings(tree)
    attrs = {local: set() for local in bound}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) and node.value.id in bound:
            attrs[node.value.id].add(node.attr)
    return [(module, name, sorted(attrs[local]))
            for local, (module, name) in bound.items()]


def benchmark_calls(source: str):
    """(module, name or None, attribute or None, positional count, keyword
    names, line) per call of a swapfact name or of an attribute read from
    one; calls with *args or **kwargs are skipped."""
    tree = ast.parse(source)
    bound = swapfact_bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, attr = node.func, None
        if isinstance(func, ast.Attribute):
            func, attr = func.value, func.attr
        if not isinstance(func, ast.Name) or func.id not in bound:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        calls.append((*bound[func.id], attr, len(node.args),
                      tuple(k.arg for k in node.keywords), node.lineno))
    return calls


def resolve(module, name, attr=None):
    obj = importlib.import_module(module)
    for part in (name, attr):
        if part is not None:
            obj = getattr(obj, part)
    return obj


def test_benchmark_calls_bind():
    unbound, seen = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        calls = benchmark_calls(path.read_text(encoding="utf-8"))
        for module, name, attr, npos, keywords, line in calls:
            seen += 1
            signature = inspect.signature(resolve(module, name, attr))
            try:
                signature.bind(*[None] * npos, **dict.fromkeys(keywords))
            except TypeError as exc:
                unbound.append(f"{path.name}:{line}: {exc}")
    assert seen, "no swapfact calls found under perfbench/"
    assert not unbound, unbound


def test_call_scan_reads_counts_and_skips_star_calls():
    calls = benchmark_calls(
        "import swapfact.cli as cli\n"
        "from swapfact.braid import BraidWord as BW\n"
        "BW(3, [(1, 1)])\n"
        "BW.from_ints(3, ints=[1])\n"
        "cli.main(*argv)\n"
        "len(BW)\n")
    assert calls == [("swapfact.braid", "BraidWord", None, 2, (), 3),
                     ("swapfact.braid", "BraidWord", "from_ints", 1,
                      ("ints",), 4)]


def test_benchmark_references_resolve():
    missing, seen = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        refs = benchmark_references(path.read_text(encoding="utf-8"))
        for module, name, attrs in refs:
            seen += 1
            obj = importlib.import_module(module)
            label = module
            if name is not None:
                label = f"{module}.{name}"
                if not hasattr(obj, name):
                    missing.append(f"{path.name}: {label}")
                    continue
                obj = getattr(obj, name)
            missing += [f"{path.name}: {label}.{a}" for a in attrs
                        if not hasattr(obj, a)]
    assert seen, "no swapfact imports found under perfbench/"
    assert not missing, missing


def test_reference_scan_sees_attributes_and_renames():
    refs = benchmark_references(
        "import swapfact\n"
        "from swapfact.braid import BraidWord as BW\n"
        "def f():\n    from swapfact.dsl import parse\n"
        "    return BW.from_ints, swapfact.__version__\n")
    assert sorted(refs) == [("swapfact", None, ["__version__"]),
                            ("swapfact.braid", "BraidWord", ["from_ints"]),
                            ("swapfact.dsl", "parse", [])]
