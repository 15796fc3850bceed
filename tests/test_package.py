"""The package namespace: every exported name, with the solver and the
catalog modules loaded only on first access."""

import ast
import importlib.util
import json
from collections import namedtuple
from importlib import import_module
from pathlib import Path

import pytest

from helpers import run_fresh
import cklie
from cklie import ck_matrix, classify, cohomology, lie_core

SUBMODULES = (ck_matrix, lie_core, cohomology, classify)


def test_every_name_is_its_home_modules_object():
    assert sorted(cklie._LAZY) == sorted(m.__name__.rpartition(".")[2] for m in SUBMODULES)
    for home, names in cklie._LAZY.items():
        module = import_module(f"cklie.{home}")
        for name in names:
            assert getattr(cklie, name) is getattr(module, name), name


@pytest.mark.parametrize(
    "module,name",
    [
        (ck_matrix, "FAMILY_KIND"),
        (ck_matrix, "NotInSpanError"),
        (cohomology, "CocycleSystem"),
        (classify, "CoefficientVerdict"),
    ],
)
def test_names_once_exported_only_by_their_module(module, name):
    # These four were listed in their module's __all__ but not by the package.
    assert name in cklie.__all__
    assert getattr(cklie, name) is getattr(module, name)


def test_only_the_package_declares_names():
    # The public names are listed once, in cklie._LAZY: no submodule assigns __all__.
    declaring = sorted(
        path.name
        for path in Path(cklie.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "__all__"
    )
    assert declaring == ["__init__.py"]


def test_names_are_listed_and_star_imported():
    assert len(set(cklie.__all__)) == len(cklie.__all__)
    assert set(cklie.__all__) <= set(dir(cklie))
    namespace: dict = {}
    exec("from cklie import *", namespace)
    assert set(cklie.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(cklie, name) for name in cklie.__all__)


class TestNoFloats:
    def test_package_source_has_no_float(self):
        """The package never touches a float: no float literal anywhere, and
        the name `float` appears only in `ck_matrix._frac`, which rejects it."""
        found = []
        for path in sorted(Path(cklie.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = set()
            if path.name == "ck_matrix.py":
                frac = next(
                    f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_frac"
                )
                exempt = {id(node) for node in ast.walk(frac)}
            for node in ast.walk(tree):
                literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                named = isinstance(node, ast.Name) and node.id == "float" and id(node) not in exempt
                if literal or named:
                    found.append(f"{path.name}:{node.lineno}")
        assert not found


# Names that no command reaches; the tests that use them import them from
# tests/helpers.py.
REMOVED = (
    "coefficient_cocycle", "is_trivial", "build_extended", "XI_LABEL",
    "Hypercomplex", "ONE", "I1", "I2", "I3", "int_vector",
    "TwoCochain", "OneCochain", "coboundary", "ExtensionCatalog",
    "OmegaVector.coeffs", "CoefficientVerdict.to_json_obj",
    "build_so", "build_su", "build_u", "build_sq", "h2", "LieAlgebra.bracket",
    "LieAlgebra.to_json_obj", "CrosscheckReport.to_json_obj", "MatrixOverK.to_component_lists",
    "MatrixOverK._grid", "MatrixOverK.__str__", "_SYMBOL", "_components", "_text",
    "epsilon", "LieAlgebra.index", "LieAlgebra.same_constants", "OmegaVector.__str__",
    "CohomologySolver.is_coboundary", "CohomologySolver.rank_mod_b2",
)


def test_removed_names_are_gone():
    exported = {*cklie.__all__, *(n for names in cklie._LAZY.values() for n in names)}
    assert exported.isdisjoint(REMOVED)
    for name in REMOVED:
        owner, _, attr = name.rpartition(".")
        if owner:
            (home,) = {getattr(m, owner) for m in (cklie, *SUBMODULES) if hasattr(m, owner)}
            # Gone, or, for a dunder, the one every object has.
            assert getattr(home, attr, None) is getattr(object, attr, None), name
        else:
            assert not any(hasattr(m, name) for m in (cklie, *SUBMODULES)), name
    for name in ("is_trivial", "int_vector"):
        assert not hasattr(cohomology.CohomologySolver, name), name
    for name in ("__add__", "__neg__", "__mul__", "__eq__"):
        assert name not in vars(ck_matrix.MatrixOverK), name
    for name in ("signs", "zero_set", "with_zeros"):
        assert not hasattr(ck_matrix.OmegaVector, name), name
    # Records inherit what their tuple already does.
    for name in ("__setattr__", "__iter__", "__len__", "__eq__"):
        assert name not in vars(ck_matrix.OmegaVector), name
    # The crosscheck report is a plain namedtuple, like CohomologyResult:
    # nothing is defined on it but what namedtuple generates.
    plain = namedtuple("CrosscheckReport", classify.CrosscheckReport._fields)
    assert vars(classify.CrosscheckReport).keys() == vars(plain).keys()
    for name in ("__eq__", "__ne__"):
        assert name not in vars(classify.CrosscheckReport), name


def test_every_exported_name_is_used_in_the_package():
    # The library surface is what the commands use: each exported name is
    # read somewhere in src/cklie outside its own definition.  Imports,
    # assignments and strings (the __all__ and _LAZY lists, docstrings) do
    # not count.
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            used.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in Path(cklie.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    assert sorted(set(cklie.__all__) - used) == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cklie.no_such_name
    assert not hasattr(cklie, "run_case")


def test_bare_import_loads_neither_cohomology_nor_classify():
    script = (
        "import json, sys\n"
        "import cklie\n"
        "before = sorted(m for m in sys.modules if m.startswith('cklie'))\n"
        "cklie.CohomologySolver\n"
        "after = sorted(m for m in sys.modules if m.startswith('cklie'))\n"
        "print(json.dumps([before, after]))\n"
    )
    before, after = json.loads(run_fresh("-c", script))
    assert before == ["cklie"]
    assert after == ["cklie", "cklie.cohomology"]


def test_one_elimination_kernel():
    # The integer elimination kernel, from row clearing to the nullspace of
    # its RREF, is defined once, in cohomology, its one user; the matrix
    # route reads coordinates off cells instead, so ck_matrix and lie_core
    # import nothing from cohomology.
    kernel = ("_normalize_int_row", "_clear", "_reduce", "_echelon_int", "_nullspace")
    defined = sorted(
        (path.name, node.name)
        for path in Path(cklie.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in kernel
    )
    assert defined == sorted(("cohomology.py", name) for name in kernel)
    for module in (ck_matrix, lie_core):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not any("cohomology" in name for name in names), (module.__name__, names)


def test_one_label_geometry():
    # A label's unit and cells are read in one place, GeneratorLabel.cells():
    # outside GeneratorLabel and the label constructors no code reads
    # `.variant` or compares with, keys a table on or matches a variant name.
    variants = {"J", "M", "B", "I", "Mq", "E"}
    readers = {"GeneratorLabel", "J", "M", "B", "Mq", "E"}
    found = []
    for path in sorted(Path(cklie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for top in tree.body
            if path.name == "ck_matrix.py"
            and isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and top.name in readers
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "variant":
                found.append((path.name, node.lineno, ".variant"))
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Dict):
                operands = [key for key in node.keys if key]
            elif isinstance(node, ast.Subscript):
                operands = [node.slice]
            elif isinstance(node, ast.MatchValue):
                operands = [node.value]
            else:
                continue
            found += [
                (path.name, c.lineno, c.value)
                for operand in operands
                for c in ast.walk(operand)
                if isinstance(c, ast.Constant) and c.value in variants
            ]
    assert found == []


def test_one_coboundary_builder_and_fractions_only_in_z2_basis():
    # delta(e_k) is built once, as the solver's integer rows: no other
    # function or class in the package names a coboundary or a cochain.
    # And cohomology makes a Fraction only where its docstring says,
    # dividing the Z2 basis rows by their pivots.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(cklie.__file__).parent.glob("*.py"))
    }
    builders = sorted(
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and ("coboundary" in node.name.lower() or "cochain" in node.name.lower())
    )
    assert builders == [("cohomology.py", "coboundary_rows")]

    def fraction_calls(node):
        return sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Fraction"
            for n in ast.walk(node)
        )

    tree = trees["cohomology.py"]
    (z2_basis,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "z2_basis"]
    assert fraction_calls(tree) == fraction_calls(z2_basis) == 1
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(alias.asname is None for n in imports for alias in n.names)


def test_crosscheck_runs_no_elimination():
    # crosscheck proves its predictor-side verdicts by certificates, so one
    # kernel fault cannot move both sides: the classify module, crosscheck
    # included, names neither the elimination kernel nor the B2 echelon.
    tree = ast.parse(Path(classify.__file__).read_text(encoding="utf-8"))
    assert any(isinstance(n, ast.FunctionDef) and n.name == "crosscheck" for n in tree.body)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    kernel = {"_reduce", "_echelon_int", "_b2_echelon", "is_coboundary", "rank_mod_b2"}
    assert names.isdisjoint(kernel)


def test_mutant_corpus_is_current():
    # tools/mutants.py replays the recorded mutation checks outside Tier-1;
    # an entry whose old text no longer occurs exactly once would stop
    # testing anything, so it fails here first.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for m in tool.MUTANTS:
        assert m.file.partition("/")[0] in tool.COPIED, m.name
        assert tool.stale(m) is None, m.name
        assert m.tests and all((root / t.partition("::")[0]).is_file() for t in m.tests), m.name


def test_every_test_module_is_named_after_a_package_module():
    # A test module is named after the module of src/cklie it tests, or is
    # one of the three that test the package as a whole, so a module named
    # after a deleted one cannot outlive it.
    modules = {path.stem for path in Path(cklie.__file__).parent.glob("*.py")}
    tests = {path.stem.removeprefix("test_") for path in Path(__file__).parent.glob("test_*.py")}
    assert sorted(tests - modules - {"acceptance", "package", "readme"}) == []
