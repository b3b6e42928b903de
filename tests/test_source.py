import ast
from collections import Counter
from pathlib import Path

import algrec
from algrec.groups import GroupDescriptor

SOURCES = sorted(Path(algrec.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

#: Public top-level names that neither the package nor perfbench refers to,
#: each with the reason it stays.
UNREFERENCED_OK = {
    "ACCEPTANCE_SEEDS": "the seeds the acceptance criteria run",
}


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check in the package must raise.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _name_counts(node: ast.AST) -> Counter:
    """How often each name is loaded or each attribute read within node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute is read (``.name`` loaded) within node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def test_every_public_name_is_referenced():
    # A name counts as used when some top-level statement other than its
    # own definition refers to it; imports alone do not count.
    public: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES + PERFBENCH:
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            used |= _name_counts(stmt).keys() - set(names)
            if path in SOURCES:
                public.update((n, path.name) for n in names
                              if not n.startswith("_"))
    unused = sorted(f"{path}:{name}" for name, path in public.items()
                    if name not in used and name not in UNREFERENCED_OK)
    assert PERFBENCH
    assert unused == []
    assert set(UNREFERENCED_OK) <= set(public)


#: Public methods and properties of package classes that neither the package
#: nor perfbench refers to by name, each with the reason it stays.
UNREFERENCED_METHODS_OK = {
    "abelian_image": "ROADMAP item 1's exact verdicts read it",
}


def test_every_public_method_is_referenced():
    # A method or property counts as used when code outside its own body
    # reads it as an attribute; a local variable of the same name does not
    # count. Dunder and private methods are left out.
    used = Counter()
    for path in SOURCES + PERFBENCH:
        used += _attribute_reads(ast.parse(path.read_text()))
    public: set[str] = set()
    unused = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name[0] == "_":
                    continue
                public.add(fn.name)
                if used[fn.name] == _attribute_reads(fn)[fn.name] \
                        and fn.name not in UNREFERENCED_METHODS_OK:
                    unused.append(f"{path.name}:{cls.name}.{fn.name}")
    assert unused == []
    assert set(UNREFERENCED_METHODS_OK) <= public


def test_only_measures_checks_a_measure():
    # make_measure, SymmetricMeasure's one constructor, builds the 64-bit
    # sampling table and makes the one symmetry check, so no other module
    # raises for a measure, and only walks reads the table.
    texts = {path.name: path.read_text() for path in SOURCES}
    checks = [name for name, text in texts.items()
              if "not symmetric" in text or "64-bit table" in text]
    reads = [name for name, text in texts.items()
             if "sampling_thresholds" in _attribute_reads(ast.parse(text))]
    assert checks == ["measures.py"] and reads == ["walks.py"]


def test_only_groups_refers_to_the_bfs_ball():
    # ball_distances is the reference the closed-form lengths are checked
    # against; no product or length path may use it.
    found = [path.name for path in SOURCES
             if "ball_distances" in path.read_text()]
    assert found == ["groups.py"]


def test_only_walks_and_freestats_know_the_trie_positions():
    # Every other module reads positions through lengths(), payload() and,
    # for freestats' prefix counts, depth_counts(), so no per-type branch
    # comes back into the closure, the experiments or the statistics.
    found = [path.name for path in SOURCES
             if "TriePositions" in path.read_text()]
    assert found == ["walks.py"]


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_starts_processes():
    # cli._run_seeds runs every seeded subcommand's seeds in one process, so
    # no module imports a process or thread pool.
    found = [f"{path.name}: {name}" for path in SOURCES
             for name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] in ("multiprocessing", "concurrent")]
    assert SOURCES and found == []


def test_only_walks_samples_a_measure():
    # generate_walk is sample_atom_indices' one caller, so every command
    # draws a seed's steps once, through the trace it then reads.
    found = [path.name for path in SOURCES
             if "sample_atom_indices" in path.read_text()]
    assert found == ["walks.py"]


def test_only_groups_names_a_family_by_its_kind():
    # Family membership is tested by class (isinstance), so no module other
    # than groups.py spells a family's kind string.
    kinds = {family.kind for family in GroupDescriptor.__subclasses__()}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             if path.name != "groups.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in kinds]
    assert len(kinds) == 5 and found == []
