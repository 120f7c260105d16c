"""Every function, class and method in ``src/ccir`` is reached by code.

The program's own code (``src/ccir``) and the benchmark (``perfbench``)
are parsed with ``ast``.  A top-level function or class, or a non-dunder
method of a top-level class, must be referenced from code outside its own
body; docstrings and comments are not code.  References made only from
definitions that are themselves unreferenced do not count, so a test-only
helper and the types only it builds are named together.  Top-level names
are resolved through each module's imports; methods are matched by
attribute name.  The names in ``ccir.__all__`` (with the methods of the
classes among them) are the library's surface and count as reached, and
so does each entry of ``ALLOWED``.
"""

import ast
from pathlib import Path

import ccir

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccir"

# (module, qualified name): reason it stays without a caller in the code
ALLOWED = {
    ("ccir.autograd", "Node.argmax"): "raises a deliberate GraphError: hard selections have no gradient",
    ("ccir.train", "export_alignment_diagnostics"): "library export listed in README",
}


def module_name(path: Path) -> str:
    if path.parent == SRC:
        return "ccir" if path.stem == "__init__" else f"ccir.{path.stem}"
    return f"perfbench.{path.stem}"


def bindings(tree: ast.Module, mod: str) -> dict:
    """Local name -> (module, attribute); attribute None binds a module."""
    package = "ccir" if mod.startswith("ccir") else ""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = package + ("." + base if base else "")
            for alias in node.names:
                local = alias.asname or alias.name
                if base == "ccir" and (SRC / f"{alias.name}.py").exists():
                    out[local] = (f"ccir.{alias.name}", None)
                else:
                    out[local] = (base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
    return out


def definitions(tree: ast.Module):
    """(qualified name, node) of top-level defs and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.Module, mod: str, binds: dict, own: set):
    """(owner, target) pairs.  The owner is the (module, qualified name)
    of the innermost definition the reference sits in, or None at module
    level; the target is (module, name) for a resolved top-level name or
    (None, attribute) for any other attribute."""
    out = []

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own:
                out.append((owner, (mod, node.id)))
            elif node.id in binds and binds[node.id][1] is not None:
                out.append((owner, binds[node.id]))
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and binds.get(base.id, (None, ""))[1] is None:
                out.append((owner, (binds[base.id][0], node.attr)))
            out.append((owner, (None, node.attr)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for child in ast.iter_child_nodes(node):
                if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    name = node.name if dunder else f"{node.name}.{child.name}"
                    visit(child, (mod, name))
                else:
                    visit(child, (mod, node.name))
        else:
            visit(node, None)
    return out


def unreferenced() -> list:
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    defs, refs, reexport = set(), [], {}
    for path in files:
        mod = module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        binds = bindings(tree, mod)
        own = {name for name, _ in definitions(tree) if "." not in name}
        if mod.startswith("ccir"):
            defs |= {(mod, name) for name, _ in definitions(tree)}
            reexport.update({(mod, k): v for k, v in binds.items() if v[1] is not None})
        refs += references(tree, mod, binds, own)

    def resolve(target):
        while target in reexport:
            target = reexport[target]
        return target

    public = {resolve(("ccir", name)) for name in ccir.__all__}
    roots = set(ALLOWED) | public | {
        (mod, name) for mod, name in defs if (mod, name.split(".")[0]) in public
    }

    def in_dead(key, dead):  # a definition, or the class it sits in
        return key in dead or (key[0], key[1].split(".")[0]) in dead

    def unreached(key, live, live_attrs, dead):
        mod, name = key
        _, _, method = name.partition(".")
        if method:
            return method not in live_attrs or in_dead(key, dead)
        return key not in live

    # references from dead definitions do not count: iterate to a fixed point
    dead: set = set()
    while True:
        live = set()
        for owner, target in refs:
            target = resolve(target)
            if owner is None or (not in_dead(owner, dead) and target != owner):
                live.add(target)
        live_attrs = {attr for mod, attr in live if mod is None}
        now = {key for key in defs if key not in roots and unreached(key, live, live_attrs, dead)}
        if now == dead:
            return sorted(f"{mod}.{name}" for mod, name in dead)
        dead = now


def test_every_src_definition_is_reached_by_code():
    missing = unreferenced()
    assert not missing, (
        "referenced only by tests (or by nothing); delete them, or allow one "
        "in ALLOWED with its reason: " + ", ".join(missing)
    )


def test_allowed_names_exist():
    defs = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs |= {(module_name(path), name) for name, _ in definitions(tree)}
    assert set(ALLOWED) <= defs
