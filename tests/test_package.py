"""The package namespace and what a cold process loads.

``import segre_pg72`` loads no submodule: each public name is looked up in
its home module on access.  A command loads only the modules it runs, which
is checked in a fresh interpreter through ``sys.modules``.
"""

import ast
import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import segre_pg72
from segre_pg72 import groups
from segre_pg72.groups import elements, stabilizer_chain
from segre_pg72.orbits import OrbitClass, OrbitPartition, Spread
from segre_pg72.segre import SegreModel, build_model
from support import deadline

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(argv: list[str]) -> set[str]:
    """Modules a fresh interpreter holds after running the CLI on argv."""
    code = f"""
import contextlib, io, sys
from segre_pg72.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main({argv!r})
assert status == 0, status
print(" ".join(sys.modules))
"""
    return set(run_fresh(code).split())


def test_bare_import_loads_no_submodule():
    code = "import sys, segre_pg72; print(sorted(m for m in sys.modules if 'segre_pg72.' in m))"
    assert run_fresh(code).strip() == "[]"


NEVER_LIGHT = {"segre_pg72.checks", "segre_pg72.anf", "dataclasses"}
# a polynomial command reads the P catalog from its pins: no group, orbit
# or variety module
NEVER_POLYS = {"segre_pg72.checks", "segre_pg72.groups", "segre_pg72.orbits", "segre_pg72.segre"}


COMMANDS = [
    (["export", "spread"], NEVER_LIGHT),
    (["export", "model", "--format", "csv"], NEVER_LIGHT),
    (["export", "orbits"], NEVER_LIGHT),
    (["orbits", "--group", "GS0"], NEVER_LIGHT),
    (["group", "order", "--gens", "M,N,K"], NEVER_LIGHT),
    (["eval", "Q2", "18"], NEVER_POLYS),
    (["export", "polys"], NEVER_POLYS),
]


@pytest.mark.parametrize("argv,absent", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_a_command_loads_only_what_it_runs(argv, absent):
    assert not loaded_by(argv) & absent


@pytest.mark.parametrize("argv", [["eval", "Q2", "18"], ["export", "polys"]], ids=" ".join)
def test_a_polynomial_command_builds_no_variety_model(argv):
    code = f"""
import contextlib, io
from segre_pg72 import segre
from segre_pg72.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main({argv!r})
assert status == 0, status
print(segre.build_model.cache_info().currsize)
"""
    assert run_fresh(code).strip() == "0"


def test_the_polynomial_layer_loads_only_gf2():
    code = """
import sys
import segre_pg72.anf
segre_pg72.anf.named_Q()
print(" ".join(sorted(m for m in sys.modules if m.startswith("segre_pg72"))))
"""
    assert run_fresh(code).split() == ["segre_pg72", "segre_pg72.anf", "segre_pg72.gf2"]


def test_verify_loads_the_checks():
    assert "segre_pg72.checks" in loaded_by(["verify", "table1"])


def test_a_submodule_name_imports_the_submodule():
    code = """
import sys, segre_pg72
module = getattr(segre_pg72, "anf")
print(module is sys.modules["segre_pg72.anf"], "segre_pg72.checks" in sys.modules)
"""
    assert run_fresh(code).split() == ["True", "False"]


def test_every_public_name_resolves_to_its_home_module_object():
    for name in segre_pg72.__all__[1:]:
        home = import_module(f"segre_pg72.{segre_pg72._HOME[name]}")
        assert getattr(segre_pg72, name) is getattr(home, name), name
    assert segre_pg72.__all__[0] == "__version__"


def test_names_are_read_through_not_cached(monkeypatch):
    def replacement(generators):
        return 0

    monkeypatch.setattr(groups, "schreier_sims", replacement)
    assert segre_pg72.schreier_sims is replacement
    monkeypatch.undo()
    assert segre_pg72.schreier_sims is groups.schreier_sims


def test_dir_and_star_import_cover_all():
    assert set(segre_pg72.__all__) <= set(dir(segre_pg72))
    namespace = {}
    exec("from segre_pg72 import *", namespace)
    assert set(segre_pg72.__all__) <= namespace.keys()


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'segre_pg72' has no attribute 'bogus'$"):
        segre_pg72.bogus
    assert not hasattr(segre_pg72, "flats_of_dimension")


@pytest.mark.parametrize("make", [
    lambda: OrbitClass((3, 5, 6)),
    lambda: OrbitPartition((OrbitClass((1,)), OrbitClass((2, 3)))),
    lambda: Spread((frozenset((1, 2, 3)), frozenset((4, 8, 12)))),
    lambda: stabilizer_chain(elements("M,N")),
], ids=["OrbitClass", "OrbitPartition", "Spread", "Chain"])
def test_records_compare_and_hash_by_value_and_are_immutable(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], ())


def test_record_members():
    cls = OrbitClass((3, 5, 6))
    assert (cls.rep, cls.size) == (3, 3)
    partition = OrbitPartition((OrbitClass((1,)), cls))
    assert partition.class_of(5) is cls
    assert partition.sizes() == [1, 3]
    with pytest.raises(ValueError, match="^point 2 is in no class of this partition$"):
        partition.class_of(2)
    for bad in (0, 256):
        with pytest.raises(ValueError, match="not a point"):
            partition.class_of(bad)


def test_model_compares_by_value_and_is_immutable():
    model = build_model()
    assert SegreModel(*model) == model
    assert model._replace(points=model.points[1:]) != model
    with pytest.raises(AttributeError):
        model.points = ()
    with pytest.raises(TypeError, match="unhashable"):
        hash(model)  # it holds dicts



# ---------------------------------------------------------------------------
# A sweep of bad inputs: every public callable that takes one required
# argument meets each sweep value under an alarm.

SWEEP_VALUES = (0, -1, 256, 1 << 300, "x", None)


def one_argument_callables() -> dict:
    found = {}
    for name in segre_pg72.__all__:
        obj = getattr(segre_pg72, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # exception classes have no signature
            continue
        positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        if sum(p.kind in positional and p.default is p.empty for p in params) == 1:
            found[name] = obj
    return found


SWEPT = one_argument_callables()
# MatrixGroup's optional element list meets the sweep too
SWEPT["MatrixGroup elements"] = lambda value: segre_pg72.MatrixGroup([], [value])

# The calls that may return: the records store what they are given,
# orbit_mask with no labels is the empty mask, and the rest are valid
# inputs.  Every other call must raise.
SWEEP_RETURNS = {
    "OrbitClass": SWEEP_VALUES, "OrbitPartition": SWEEP_VALUES, "Spread": SWEEP_VALUES,
    "orbit_mask": SWEEP_VALUES,
    "Anf": (0, 256), "anf_from_pointset": (0, 256), "mobius": (0, 256),
    "degree_by_incidence": (256,), "weight": (0,),
}


def test_the_sweep_covers_the_public_callables():
    assert len(SWEPT) >= 30
    assert set(SWEEP_RETURNS) <= set(SWEPT)


@pytest.mark.parametrize("name", list(SWEPT))
def test_bad_inputs_raise_at_once(name):
    call = SWEPT[name]
    returned = []
    for value in SWEEP_VALUES:
        with deadline(2, f"{name}({value!r})"):
            try:
                call(value)
            except Exception:
                continue
        returned.append(value)
    assert tuple(returned) == SWEEP_RETURNS.get(name, ())


# ---------------------------------------------------------------------------
# The layout of the tests: shared machinery lives in tests/support.py and
# the reference routes in tests/refs.py, so no test module imports another.


def imported_modules(path: Path) -> set[str]:
    """The top-level names of every module the file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # `from . import x` names its modules in the aliases
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found |= {name.split(".")[0] for name in names}
    return found


def test_no_test_module_imports_another():
    # support.py and refs.py are held to it too, so no import reaches a
    # test module through them
    modules = sorted((ROOT / "tests").glob("*.py"))
    assert {"support.py", "refs.py"} < {path.name for path in modules}
    assert len(modules) >= 14
    offenders = {
        path.name: sorted(name for name in imported_modules(path) if name.startswith("test_"))
        for path in modules
    }
    assert {name: found for name, found in offenders.items() if found} == {}
