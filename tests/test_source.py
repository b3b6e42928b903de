import ast
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


def _referenced_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_every_public_name_is_referenced():
    # A name counts as used when some top-level statement other than its
    # own definition refers to it; imports alone do not count.
    public: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES + PERFBENCH:
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            used |= _referenced_names(stmt) - set(names)
            if path in SOURCES:
                public.update((n, path.name) for n in names
                              if not n.startswith("_"))
    unused = sorted(f"{path}:{name}" for name, path in public.items()
                    if name not in used and name not in UNREFERENCED_OK)
    assert PERFBENCH
    assert unused == []
    assert set(UNREFERENCED_OK) <= set(public)


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


def test_only_experiments_and_cli_know_the_seed_fan_out():
    # experiments.py defines map_seeds and cli._run_seeds is its one caller,
    # so every seeded subcommand fans out and times its seeds the same way.
    found = [path.name for path in SOURCES if "map_seeds" in path.read_text()]
    assert found == ["cli.py", "experiments.py"]


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
