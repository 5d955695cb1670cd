"""Structural rules of the package.

Reference code lives in oracle.py: production modules do not import it.
The package namespace re-exports the oracle's solvers and the CLI offers
them as commands, so __init__.py and cli.py are the two exceptions.

Production modules import only the standard library, numpy and the
package itself: every `pgt` command pays for its imports before it reads
its input, and a heavy import (scipy.sparse.csgraph adds about 33 MB and
0.6 s) would show in the benchmark's setup time and peak memory.

Production modules hold no assert statement: a check that carries
meaning raises a real exception, and `python -O` strips asserts.

The solver and composition modules keep no module-level cache: the
parity solver's memo lives for one call or one composition fold, since
library users and the benchmark's worker are long-lived processes.

Every private module-level name of a production module is used by the
package; a name of the oracle may serve the tests alone.  A refactor
that leaves a helper or pattern behind fails here.

No production function compiles a constant pattern: the line walkers
take one per token of every line they read, so constant patterns are
compiled once, at module level.

The parity solver's steps run their attractors and reach-template
layerings only through the memo helper, so a later direct call cannot
silently bypass the memo.

There is one attractor kernel: no production module but transformers.py
reads the predecessor lists (GameGraph.pred_csr) or decrements a
counter, so a second worklist loop, such as a solver's own copy of the
kernel's layer step, fails here.  The oracle is reference code and may
keep its own.

The command line front end reads no vertex label: every vertex list it
prints comes from gameio's renderer, so one module decides how labels
become text and checks that they read back.

Every template a solver or composition returns gets its unsafe set, the
player-0 edges leaving its region, from one helper (solvers._solved):
each producer calls it, or another producer that does, and builds no
template itself, and no other production function stores into a mask
at the edge ids _crossing_edges finds.
"""
import ast
import sys
from pathlib import Path

import pgtemplates

PACKAGE = Path(pgtemplates.__file__).resolve().parent
MAY_IMPORT_ORACLE = {"__init__.py", "cli.py", "oracle.py"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            for alias in node.names:
                yield "%s.%s" % (base, alias.name) if base else alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name


def _top_level_imports(path):
    """First components of the absolute imports of a module, wherever
    they occur in it (relative imports are the package's own)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]


def _names_oracle(module):
    return "oracle" in module.split(".")


def test_production_modules_do_not_import_the_oracle():
    offenders = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name not in MAY_IMPORT_ORACLE
        and any(_names_oracle(m) for m in _imported_modules(path)))
    assert offenders == []


def test_import_reader_sees_oracle_imports():
    assert any(_names_oracle(m) for m in _imported_modules(PACKAGE / "cli.py"))


def test_every_exported_name_resolves():
    missing = [name for name in pgtemplates.__all__
               if not hasattr(pgtemplates, name)]
    assert missing == []
    assert len(set(pgtemplates.__all__)) == len(pgtemplates.__all__)


def test_production_modules_import_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pgtemplates"}
    found = {path.name: set(_top_level_imports(path))
             for path in PACKAGE.glob("*.py")}
    offenders = sorted((name, module) for name, modules in found.items()
                       for module in modules - allowed)
    assert offenders == []
    assert "numpy" in found["graph.py"]


def test_production_modules_hold_no_assert():
    found = sorted((path.name, node.lineno) for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Assert))
    assert found == []


CALL_SCOPED = ("solvers.py", "compose.py")
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict",
                     "Counter"}


def _called_name(node):
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _module_caches(source):
    """Module-level assignments of a mutable container, and any use of
    functools' caching decorators, with their line numbers."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if isinstance(value, MUTABLE_LITERALS) or (
                    isinstance(value, ast.Call)
                    and _called_name(value) in MUTABLE_FACTORIES):
                yield node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and \
                _called_name(node) in ("lru_cache", "cache"):
            yield node.lineno


def test_solver_memo_is_call_scoped():
    found = sorted((name, line) for name in CALL_SCOPED
                   for line in _module_caches((PACKAGE / name).read_text(encoding="utf-8")))
    assert found == []


def test_cache_reader_sees_module_level_caches():
    source = ("import functools\n_memo = {}\n_seen: list = []\n"
              "_sub = dict()\n@functools.lru_cache(maxsize=None)\n"
              "def f(x):\n    return x\n@cache\ndef g(x):\n    local = {}\n")
    assert sorted(_module_caches(source)) == [2, 3, 4, 5, 8]
    assert list(_module_caches((PACKAGE / "cli.py").read_text(encoding="utf-8")))


def _dead_private_names(sources, checked):
    """(module, name) of each private module-level function, class or
    variable of the checked modules that no code of the given modules
    (name -> source) refers to outside its own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = {}  # name -> (module, the nodes of its definition)
    for module in checked:
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (module, {id(n) for n in ast.walk(node)})
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                used.add((node.attr, id(node)))
            elif isinstance(node, ast.alias):
                used.add((node.name, id(node)))
    return sorted((module, name) for name, (module, own) in defined.items()
                  if not any(n == name and i not in own for n, i in used))


def _sources(directory, prefix=""):
    return {prefix + path.name: path.read_text(encoding="utf-8")
            for path in directory.glob("*.py")}


def test_every_private_name_is_used():
    package = _sources(PACKAGE)
    production = sorted(name for name in package if name != "oracle.py")
    assert _dead_private_names(package, production) == []
    # the oracle is reference code: the tests may be its only callers
    tests = _sources(Path(__file__).resolve().parent, "tests/")
    assert _dead_private_names({**package, **tests}, ["oracle.py"]) == []


def test_dead_name_reader_sees_unused_names():
    sources = {"a.py": "import re\n_used = re.compile('x')\n_dead = 1\n"
                       "def _loop(n):\n    return _loop(n - 1)\n"
                       "class _Kept:\n    pass\n__all__ = []\n",
               "b.py": "from .a import _Kept\nprint(_used.pattern)\n_b = 2\n"}
    assert _dead_private_names(sources, ["a.py"]) == [("a.py", "_dead"), ("a.py", "_loop")]
    assert _dead_private_names(sources, ["a.py", "b.py"])[-1] == ("b.py", "_b")


RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "findall", "finditer",
                "sub", "subn", "split"}


def _constant_patterns(source):
    """Line numbers of the calls inside functions of re.compile, or of
    another re function that compiles its pattern, on a constant string
    or on a parameter of the function, which its callers may pass as a
    constant."""
    for top in ast.walk(ast.parse(source)):
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        params = {a.arg for a in top.args.posonlyargs + top.args.args + top.args.kwonlyargs}
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in RE_FUNCTIONS and node.args):
                continue
            pattern = node.args[0]
            if (isinstance(pattern, ast.Constant) and isinstance(pattern.value, str)
                    or isinstance(pattern, ast.Name) and pattern.id in params):
                yield node.lineno


def test_no_function_compiles_a_constant_pattern():
    found = sorted({(path.name, line) for path in PACKAGE.glob("*.py")
                    if path.name != "oracle.py"
                    for line in _constant_patterns(path.read_text(encoding="utf-8"))})
    assert found == []


def test_pattern_reader_sees_constant_patterns():
    source = ("import re\n_P = re.compile('x')\n"
              "def f(s, k):\n    re.compile('%d' % k)\n"
              "    return re.compile(r'a+').match(s)\n"
              "class C:\n    def take(self, pattern):\n        p = _P\n"
              "        re.compile(p)\n        return re.compile(pattern).match(self.s)\n")
    assert sorted(set(_constant_patterns(source))) == [5, 10]


LABEL_READS = {"names", "name_of"}


def _label_reads(source):
    """Line numbers of the attributes of source that read vertex labels."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in LABEL_READS]


def test_cli_reads_no_vertex_label():
    assert _label_reads((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_label_reader_sees_label_reads():
    source = "def f(g, v):\n    x = g.names\n    return g.name_of(v), x\n"
    assert _label_reads(source) == [2, 3]


MEMO_KERNELS = {"attr_mask", "reach_template"}


def _kernel_refs(source, function, helper):
    """Line numbers of the references to a memoized kernel inside the
    named function, and whether that function calls the helper."""
    for top in ast.walk(ast.parse(source)):
        if isinstance(top, ast.FunctionDef) and top.name == function:
            refs = sorted(node.lineno for node in ast.walk(top)
                          if isinstance(node, (ast.Name, ast.Attribute))
                          and _called_name(node) in MEMO_KERNELS)
            calls = any(isinstance(node, ast.Call) and _called_name(node) == helper
                        for node in ast.walk(top))
            return refs, calls
    return None


def test_parity_steps_run_kernels_through_the_memo():
    source = (PACKAGE / "solvers.py").read_text(encoding="utf-8")
    assert _kernel_refs(source, "_parity_solve", "_remembered") == ([], True)


def test_kernel_ref_reader_sees_direct_kernel_use():
    source = ("def _parity_solve(g, memo):\n"
              "    a = _remembered(memo, 'attr', g)\n"
              "    b = attr_mask(g, a, 0)\n"
              "    run = transformers.attr_mask\n"
              "    return reach_template(g, run(g, b, 1))\n"
              "def other(g):\n    return attr_mask(g)\n")
    assert _kernel_refs(source, "_parity_solve", "_remembered") == ([3, 4, 5], True)
    assert _kernel_refs(source, "other", "_remembered") == ([7], False)
    assert _kernel_refs(source, "missing", "_remembered") is None


UNSAFE_HELPER = "_solved"
TEMPLATE_BUILDERS = {"StrategyTemplate", "from_groups", "from_edges"}


def _producers(source):
    """Names of the public top-level functions of source that return a
    SolveResult."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")
                  and isinstance(node.returns, ast.Name)
                  and node.returns.id == "SolveResult")


def _off_helper_producers(sources, producers):
    """The producers (module, function) that neither call the helper nor
    another producer, or that build a template themselves."""
    names = {name for _, name in producers}
    found = []
    for module, name in producers:
        for node in ast.parse(sources[module]).body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                calls = {_called_name(n) for n in ast.walk(node)
                         if isinstance(n, ast.Call)}
                if (not calls & (names | {UNSAFE_HELPER})
                        or calls & TEMPLATE_BUILDERS):
                    found.append((module, name))
                break
        else:
            found.append((module, name))
    return found


def _crossing_stores(source):
    """Line numbers, outside the helper, of the stores into a subscript
    at edge ids from _crossing_edges: the call itself, or a name bound to
    its result in the same function."""
    found = set()
    for top in ast.walk(ast.parse(source)):
        if not isinstance(top, ast.FunctionDef) or top.name == UNSAFE_HELPER:
            continue
        bound = {target.id for node in ast.walk(top)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                 and _called_name(node.value) == "_crossing_edges"
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(top):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AugAssign) else [])
            for target in targets:
                index = target.slice if isinstance(target, ast.Subscript) else None
                if (isinstance(index, ast.Call)
                        and _called_name(index) == "_crossing_edges"
                        or isinstance(index, ast.Name) and index.id in bound):
                    found.add(node.lineno)
    return sorted(found)


def test_templates_get_their_unsafe_set_from_one_helper():
    sources = _sources(PACKAGE)
    producers = [("solvers.py", name) for name in _producers(sources["solvers.py"])]
    assert [name for _, name in producers] == [
        "buchi_template", "cobuchi_template", "parity_template", "safety_template"]
    producers.append(("compose.py", "compose_templates"))
    assert _off_helper_producers(sources, producers) == []
    assert [(name, line) for name, source in sorted(sources.items())
            if name != "oracle.py" for line in _crossing_stores(source)] == []


def test_unsafe_set_reader_sees_templates_built_elsewhere():
    source = ("def _solved(g, w0):\n    unsafe[_crossing_edges(g, w0, ~w0)] = True\n"
              "def a_template(g) -> SolveResult:\n    return _solved(g, w0)\n"
              "def b_template(g) -> SolveResult:\n    return a_template(g)\n"
              "def c_template(g) -> SolveResult:\n"
              "    ids = _crossing_edges(g, w0, w1)\n    unsafe[ids] = True\n"
              "    return SolveResult(w0, w1, StrategyTemplate.from_groups(g, unsafe))\n"
              "def d_template(g) -> SolveResult:\n"
              "    t = _solved(g, w0).template\n"
              "    return SolveResult(w0, w1, StrategyTemplate(g, t.unsafe_mask))\n"
              "def _e(g) -> SolveResult:\n    colive.append(_crossing_edges(g, x, y))\n"
              "    mask[_crossing_edges(g, x, y)] |= True\n"
              "def reach_template(g) -> list:\n    return []\n")
    sources = {"s.py": source}
    names = _producers(source)
    assert names == ["a_template", "b_template", "c_template", "d_template"]
    producers = [("s.py", name) for name in names] + [("s.py", "missing")]
    assert _off_helper_producers(sources, producers) == [
        ("s.py", "c_template"), ("s.py", "d_template"), ("s.py", "missing")]
    assert _crossing_stores(source) == [9, 16]


KERNEL_MODULE = "transformers.py"


def _kernel_work(source):
    """Line numbers of the reads of GameGraph.pred_csr and of the
    counter decrements in source: a subtraction stored back in place
    (``c[i] -= k``), or a subtraction from an element of a sequence that
    the same function also stores into (``x = c[i] - 1`` then
    ``c[i] = x``)."""
    found = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "pred_csr":
            found.add(node.lineno)
    for top in ast.walk(tree):
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        subtracted, stored = [], set()
        for node in ast.walk(top):
            if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
                    and isinstance(node.target, ast.Subscript)):
                found.add(node.lineno)
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.left, ast.Subscript)):
                subtracted.append((ast.unparse(node.left.value), node.lineno))
            elif isinstance(node, ast.Assign):
                stored.update(ast.unparse(target.value) for target in node.targets
                              if isinstance(target, ast.Subscript))
        found.update(line for base, line in subtracted if base in stored)
    return sorted(found)


def test_only_the_kernel_runs_attractor_work():
    sources = _sources(PACKAGE)
    assert _kernel_work(sources[KERNEL_MODULE])
    assert [(name, line) for name, source in sorted(sources.items())
            if name not in (KERNEL_MODULE, "oracle.py")
            for line in _kernel_work(source)] == []


def test_kernel_work_reader_sees_copies_of_the_kernel():
    source = ("def layer(g, counter, cand, cnts):\n"
              "    poff, psrc = g.pred_csr()\n"
              "    counter[cand] -= cnts\n"
              "    for u in psrc:\n"
              "        c = cntv[u] - 1\n"
              "        cntv[u] = c\n"
              "def offsets(off, v):\n"
              "    last = off[v + 1] - 1\n"
              "    return off[1:] - off[:-1], last\n"
              "def shift(x, i):\n"
              "    x.flat[i] -= 1\n")
    assert _kernel_work(source) == [2, 3, 5, 11]
