"""The library holds what the CLI and the benchmark run.

A static scan of ``src/grascat``.  It starts from `cli.main`, from every
attribute that the benchmark (``perfbench/``) reads off a library module,
and from the dotted paths of the benchmark's ``TRACED`` and ``CACHES``
tables.  It follows the names referenced inside each reached top-level
definition until nothing new is added.  An import statement alone is no
reference, and neither is a docstring.  A method is reached when its class
is, if its name is a dunder or is read as an attribute in reached code.

Every top-level name, and every method of a reached class, that the scan
does not reach must be in `KEEP`, with the reason it stays.  A paper claim
that only the tests check belongs in ``tests/claims.py``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
LIBRARY = ROOT / "src" / "grascat"
BENCHMARK = ROOT / "perfbench"

KEEP = {
    "kinematics.PRIME_ETA_36": "golden value: the (3,6) prime-kinematics eta",
    "kinematics.NC_AMPLITUDE_36_VALUE": "golden value: the (3,6) prime-kinematics amplitude",
    "kinematics.ETA_HAT_38_TABLE": "golden value: the (3,8) eta-hat table",
    "combinat.clear_caches": "empties every per-shape cache; the tests' fixtures call it",
    "polytope.root_polytope": "a named polytope of the paper",
    "polytope.pk_associahedron": "a named polytope of the paper",
    "polynomial.delta": "the face polynomials pk_associahedron sums",
    "polynomial.planar_face_range": "the faces pk_associahedron sums over",
    "polytope.root_polytope_contains": "the membership test of a planned benchmark op",
    # Poly and FactoredRatio are the package's polynomial API: all of their
    # methods stay with them
    "polynomial.Poly.var": "a method of Poly",
    "polynomial.Poly.monomial": "a method of Poly",
    "polynomial.FactoredRatio.expand": "a method of FactoredRatio",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class Module:
    """One library module: its top-level definitions, its classes' methods,
    the names its relative imports bind, and its other module-level code."""

    def __init__(self, tree):
        self.defs = {}  # name -> node
        self.methods = {}  # class name -> {method name: node}
        self.imports = {}  # bound name -> (module, name)
        self.modules = {}  # bound name -> module
        self.statements = []
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                self.defs[node.name] = node
                if isinstance(node, ast.ClassDef):
                    self.methods[node.name] = {f.name: f for f in node.body
                                               if isinstance(f, FUNCTIONS)}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for leaf in (n for t in targets for n in ast.walk(t)):
                    if isinstance(leaf, ast.Name):
                        self.defs[leaf.id] = node
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names if node.level else ():
                    bound = alias.asname or alias.name
                    if node.module is None:
                        self.modules[bound] = alias.name
                    else:
                        self.imports[bound] = (node.module, alias.name)
            elif not isinstance(node, (ast.Import, ast.Expr)):
                self.statements.append(node)


def _locals(node):
    """The names a function binds anywhere inside it, nested scopes
    included: its arguments, every stored name and every nested definition."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            out.add(sub.arg)
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, FUNCTIONS + (ast.ClassDef,)) and sub is not node:
            out.add(sub.name)
    return out


class Scan:
    """The reachability scan; items are "module.name" and
    "module.Class.method"."""

    def __init__(self):
        self.modules = {p.stem: Module(_parse(p)) for p in sorted(LIBRARY.glob("*.py"))}
        self.reached = set()
        self.attrs = set()  # every attribute name read in reached code
        self.todo = []

    def resolve(self, module, path):
        """The item that the dotted path names in library module `module`,
        followed through its relative imports, or None for a local, a
        module or anything outside the library."""
        first, *rest = path.split(".")
        mod = self.modules[module]
        if first in mod.imports:
            source, original = mod.imports[first]
            if source not in self.modules:
                return None
            return self.resolve(source, ".".join([original, *rest]))
        if first in mod.modules:
            return self.resolve(mod.modules[first], ".".join(rest)) if rest else None
        if first not in mod.defs:
            return None
        if not rest:
            return f"{module}.{first}"
        if rest[0] in mod.methods.get(first, {}):
            return f"{module}.{first}.{rest[0]}"
        return None

    def _path(self, node, local):
        """The dotted path of a name or a chain of attributes on a name
        that is not a local, else None."""
        if isinstance(node, ast.Attribute):
            head = self._path(node.value, local)
            return head and f"{head}.{node.attr}"
        if isinstance(node, ast.Name) and node.id not in local:
            return node.id
        return None

    def reach(self, item):
        if item is not None and item not in self.reached:
            self.reached.add(item)
            self.todo.append(item)

    def references(self, module, node, local=frozenset()):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                self.attrs.add(sub.attr)
            path = self._path(sub, local) if isinstance(sub, (ast.Name, ast.Attribute)) else None
            if path:
                self.reach(self.resolve(module, path))

    def visit(self, item):
        module, name, *method = item.split(".")
        node = self.modules[module].defs[name]
        if method:
            node = self.modules[module].methods[name][method[0]]
        if isinstance(node, FUNCTIONS):
            self.references(module, node, _locals(node))
        elif isinstance(node, ast.ClassDef):
            for part in node.bases + node.decorator_list + node.body:
                if not isinstance(part, FUNCTIONS):
                    self.references(module, part)
        else:
            self.references(module, node.value or node)

    def run(self, roots):
        for module, mod in self.modules.items():
            for name in filter(_dunder, mod.defs):
                self.reach(f"{module}.{name}")
            for node in mod.statements:
                self.references(module, node)
        for item in roots:
            self.reach(item)
        while self.todo:
            while self.todo:
                self.visit(self.todo.pop())
            for module, mod in self.modules.items():
                for cls, methods in mod.methods.items():
                    if f"{module}.{cls}" in self.reached:
                        for name in methods:
                            if _dunder(name) or name in self.attrs:
                                self.reach(f"{module}.{cls}.{name}")
        return self

    def unreached(self):
        out = set()
        for module, mod in self.modules.items():
            items = [f"{module}.{name}" for name in mod.defs]
            items += [f"{module}.{cls}.{m}" for cls, methods in mod.methods.items()
                      if f"{module}.{cls}" in self.reached for m in methods]
            out.update(item for item in items if item not in self.reached)
        return out


def benchmark_tables():
    """The (metric, module, dotted path) entries of the benchmark's
    ``TRACED`` and ``CACHES`` tables."""
    for node in ast.walk(_parse(BENCHMARK / "tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TRACED", "CACHES") for t in node.targets):
            yield from ast.literal_eval(node.value)


def benchmark_paths(modules):
    """(module, dotted path) of every library attribute that the benchmark
    reads: each chain of attributes on a name bound to a library module or
    on ``lib["module"]``, and each entry of ``TRACED`` and ``CACHES``."""
    out = {(module, path) for _metric, module, path in benchmark_tables()}
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(_parse(path)):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                node = ast.Name(node.slice.value)
            if chain and isinstance(node, ast.Name) and node.id in modules:
                out.add((node.id, ".".join(chain)))
    return out


def library_scan():
    scan = Scan()
    roots = {scan.resolve(module, path) for module, path in benchmark_paths(scan.modules)}
    return scan.run({"cli.main"} | roots)


def test_every_traced_and_cached_path_resolves():
    scan = Scan()
    entries = list(benchmark_tables())
    assert ("polynomial.Poly.mul", "polynomial", "Poly.__mul__") in entries
    assert [e for e in entries if scan.resolve(e[1], e[2]) is None] == []


def test_only_the_kept_names_are_unreached():
    unreached = library_scan().unreached()
    assert unreached - set(KEEP) == set(), "reached only by tests; move to tests/claims.py"
    assert set(KEEP) - unreached == set(), "kept as unreached, but the scan reaches it"


if __name__ == "__main__":
    for item in sorted(library_scan().unreached()):
        print(item)
