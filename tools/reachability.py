#!/usr/bin/env python3
"""List the definitions of ``src/risim`` that no entry point reaches.

Walks the syntax tree of every module of the package, without importing
it.  The roots are the module-level code of each module (its top-level
statements other than definitions, such as the scheme type table
``im_schemes.SCHEME_TYPES``) and the ``risim`` commands (functions
decorated with ``@cli.command()``).  From the roots the walk follows names:

- a bare name reaches the function or class it is bound to at module
  level, directly or through ``from .module import name``; in a class
  body it also reaches that class's methods;
- ``module.name`` reaches that function or class of a risim module and
  nothing of any other module (numpy, click, ...);
- ``self.name`` or ``cls.name`` in a method, and ``Class.name``, reach the
  methods of that name in the class, its bases and its subclasses;
- any other ``obj.name`` reaches every method of that name.

A reached class brings its bases, decorators and class-body statements,
and its dunder methods, which Python calls implicitly; a method counts
only once its class is reached.  Annotations reach nothing, but for those
of class attributes: ``errors._Section.read`` reads a config type's keys
from them.

``EXCEPTIONS`` lists the definitions kept although no root reaches them,
each with its reason.  They are walked as further roots, so the helpers
they call need no entry of their own; a method stands for calls through
its class, so its overrides need none either.  The script prints one line per
unreached definition, one per exception that the roots reach without it
(the entry is stale) and one per exception that names no definition, and
exits 1 if it printed anything:

    python3 tools/reachability.py
"""

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "risim"

# (module, decorator) pairs whose function is registered, so called from outside
ROOT_DECORATORS = {("cli", "cli.command")}

_ACCEPTANCE = "called by tests/test_acceptance.py, which is not edited"
EXCEPTIONS = {
    "combinatorics.subset_rank": _ACCEPTANCE,
    "combinatorics.subset_unrank": _ACCEPTANCE,
    "metaatom.ResponseTable.phase_span_deg": _ACCEPTANCE,
    "metaatom.ResponseTable.worst_loss_db": _ACCEPTANCE,
    "im_schemes.Scheme.demap_word": _ACCEPTANCE,
    "im_schemes.Scheme.channel_uses": _ACCEPTANCE,
    "detection.CandidateSet.count": _ACCEPTANCE,
    "channel.rician": "reference for the in-place Rician mix of harness._BerModel._draw_channel",
    "im_schemes.Scheme.transmit_vector": "per-word reference for Scheme.codebook",
    "modulation.gray_decode": "inverse the Gray-label tests check gray_encode against",
    "aperture.pseudo_random_codings": "aperture states for RIS-aided MBM (ROADMAP item 9)",
    "aperture.PhaseCoding.uniform": "test fixture for uniform aperture states",
    "aperture.compose_phase": _ACCEPTANCE,
}


@dataclass
class Definition:
    module: str
    qualname: str
    node: ast.AST
    owner: "Definition | None" = None          # the class of a method
    methods: dict = field(default_factory=dict)  # of a class: name -> Definition
    bases: list = field(default_factory=list)    # of a class: base Definitions

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)


@dataclass
class Module:
    name: str
    tree: ast.Module
    defs: dict = field(default_factory=dict)      # top-level name -> Definition
    imports: dict = field(default_factory=dict)   # name -> (risim module, name)
    modules: dict = field(default_factory=dict)   # alias -> risim module
    external: set = field(default_factory=set)    # names imported from elsewhere


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def load(src: Path = SRC) -> dict:
    modules = {}
    for path in sorted(src.glob("*.py")):
        mod = Module(path.stem, ast.parse(path.read_text(), str(path)))
        for node in ast.walk(mod.tree):   # imports inside functions bind names too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        mod.modules[local] = alias.name
                    else:
                        mod.imports[local] = (node.module, alias.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mod.external.update((a.asname or a.name).split(".")[0] for a in node.names)
        for node in mod.tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                d = Definition(mod.name, node.name, node)
                mod.defs[node.name] = d
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, _FUNCTIONS):
                            d.methods[item.name] = Definition(
                                mod.name, f"{node.name}.{item.name}", item, owner=d)
        modules[mod.name] = mod
    for mod in modules.values():
        for d in mod.defs.values():
            if d.is_class:
                bases = (_lookup(modules, mod, base) for base in d.node.bases)
                d.bases = [b for b in bases if b is not None and b.is_class]
    return modules


def _lookup(modules, mod, node):
    """The Definition a bare name or module.attr expression is bound to."""
    if isinstance(node, ast.Name):
        if node.id in mod.defs:
            return mod.defs[node.id]
        if node.id in mod.imports:
            target, name = mod.imports[node.id]
            if target in modules:
                return _lookup(modules, modules[target], ast.Name(name))
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id in mod.modules):
        target = modules.get(mod.modules[node.value.id])
        return target.defs.get(node.attr) if target else None
    return None


class Walk:
    """Reachability from a set of root definitions plus module-level code."""

    def __init__(self, modules):
        self.modules = modules
        self.classes = [d for m in modules.values() for d in m.defs.values() if d.is_class]
        self.reached = {}            # key -> Definition
        self.todo = []
        self.any_attrs = set()       # obj.name with an unknown obj
        self.family_attrs = set()    # (class key, name) of self/cls/Class.name

    def run(self, roots):
        for mod in self.modules.values():
            for node in mod.tree.body:
                if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                    decorators = {ast.unparse(getattr(dec, "func", dec))
                                  for dec in node.decorator_list}
                    if any((mod.name, dec) in ROOT_DECORATORS for dec in decorators):
                        self.reach(mod.defs[node.name])
                elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                    self.scan(node, mod, None, None)
        for d in roots:
            self.reach(d)
            if d.owner is not None:   # a call through the class reaches overrides too
                self.family_attrs.add((d.owner.key, d.node.name))
        while self.todo:
            while self.todo:
                self.expand(self.todo.pop())
            for cls in [c for c in self.classes if c.key in self.reached]:
                for name, method in cls.methods.items():
                    if self._method_reached(cls, name):
                        self.reach(method)
        return self.reached

    def _method_reached(self, cls, name) -> bool:
        if name.startswith("__") and name.endswith("__") or name in self.any_attrs:
            return True
        return any((c.key, name) in self.family_attrs for c in self.family(cls))

    def family(self, cls):
        """The class, its bases and its subclasses."""
        up, stack = [], [cls]
        while stack:
            c = stack.pop()
            up.append(c)
            stack += c.bases
        down = [c for c in self.classes if any(b is cls for b in self.ancestors(c))]
        return up + down

    def ancestors(self, cls):
        for b in cls.bases:
            yield b
            yield from self.ancestors(b)

    def reach(self, d):
        if d is not None and d.key not in self.reached:
            self.reached[d.key] = d
            self.todo.append(d)

    def expand(self, d):
        mod = self.modules[d.module]
        node = d.node
        if d.is_class:
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                self.scan(part, mod, None, None)
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    self._scan_header(item, mod, d)
                else:
                    self.scan(item, mod, d, d)
            return
        self._scan_header(node, mod, d.owner)
        for stmt in node.body:
            self.scan(stmt, mod, None, d.owner)

    def _scan_header(self, node, mod, owner):
        for part in (*getattr(node, "decorator_list", ()), *node.args.defaults,
                     *(k for k in node.args.kw_defaults if k is not None)):
            self.scan(part, mod, None, owner)

    def scan(self, node, mod, class_scope, owner):
        """Follow every name in ``node``.  ``class_scope`` is the class whose
        body holds ``node``; ``owner`` the class of the enclosing method."""
        if isinstance(node, _FUNCTIONS):
            self._scan_header(node, mod, owner)
            for stmt in node.body:
                self.scan(stmt, mod, None, owner)
            return
        if isinstance(node, ast.Lambda):
            self._scan_header(node, mod, owner)
            self.scan(node.body, mod, None, owner)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.scan(node.value, mod, class_scope, owner)
            if class_scope is not None:   # a declared config key (errors._Section.read)
                self.scan(node.annotation, mod, class_scope, owner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if class_scope is not None and node.id in class_scope.methods:
                self.reach(class_scope.methods[node.id])
            self.reach(_lookup(self.modules, mod, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._attribute(node, mod, owner)
        for child in ast.iter_child_nodes(node):
            self.scan(child, mod, class_scope, owner)

    def _attribute(self, node, mod, owner):
        value = node.value
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and owner is not None:
                self.family_attrs.add((owner.key, node.attr))
                return
            if value.id in mod.modules:
                self.reach(_lookup(self.modules, mod, node))
                return
            if value.id in mod.external:
                return
            target = _lookup(self.modules, mod, value)
            if target is not None and target.is_class:
                self.family_attrs.add((target.key, node.attr))
                return
        self.any_attrs.add(node.attr)


def definitions(modules):
    for mod in modules.values():
        for d in mod.defs.values():
            yield d
            yield from d.methods.values()


def report(src: Path = SRC) -> list:
    """One line per unreached definition, stale exception and unknown exception."""
    modules = load(src)
    every = {d.key: d for d in definitions(modules)}
    lines = [f"unknown exception: {key}" for key in EXCEPTIONS if key not in every]
    alone = Walk(modules).run([])
    lines += [f"stale exception: {key} is reached without it"
              for key in EXCEPTIONS if key in alone]
    reached = Walk(modules).run([every[key] for key in EXCEPTIONS if key in every])
    for key, d in every.items():
        if key not in reached:
            lines.append(f"unreached: {key}  (src/risim/{d.module}.py:{d.node.lineno})")
    return lines


def main() -> int:
    lines = report()
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
