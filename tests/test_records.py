"""Value types: frozen records with ==, hash and repr over their fields, one
trust boundary (Record._trusted) for the values the library builds, and a
cold import that pulls in neither dataclasses nor importlib.resources."""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nlk3
from nlk3.chern import P2Class, SurfaceChernData, default_unigonal_table
from nlk3.lattice import DiscElement, IntegralLattice, LatticeVector, build_standard
from nlk3.nldiv import NLKey, NLVectorData
from nlk3.orbits import nl_component_count
from nlk3.siegel import GenusTwoSeries, Weight10Basis, Weight10Fit, chi10, default_chi10_exponents


def h2():
    """The H'' component at g = 6, its candidate carrying a witness."""
    return nl_component_count(6, "a11", with_witnesses=True)[1][1]


VALUES = {
    "P2Class": lambda: P2Class(1, Fraction(1, 2), -3),
    "SurfaceChernData": lambda: SurfaceChernData(32, -16, 8, 4),
    "UnigonalTable": default_unigonal_table,
    "LatticeVector": lambda: LatticeVector((1, -2, 3)),
    "IntegralLattice": lambda: build_standard("LambdaA1", g=5),
    "DiscElement": lambda: DiscElement((2, 10), (1, 13)),
    "NLKey": lambda: NLKey(6, 1, -2),
    "NLVectorData": lambda: NLVectorData(Fraction(-1, 4), 3, True),
    "OrbitCandidate": lambda: h2().candidate,
    "Component": h2,
    "GenusTwoSeries": lambda: chi10(trunc_k=1, trunc_m=2),
    "HalfIntegralTable": default_chi10_exponents,
    "Weight10Basis": Weight10Basis,
    "Weight10Fit": lambda: Weight10Fit(1, -56160),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_frozen_records(name):
    v = VALUES[name]()
    cls = type(v)
    assert cls.__name__ == name and not dataclasses.is_dataclass(v)
    values = tuple(getattr(v, f) for f in cls._fields)
    # the frozen dataclass these types were: its repr and hash are the reference
    twin = dataclasses.make_dataclass(name, cls._fields, frozen=True)(*values)
    assert repr(v) == repr(twin)
    first = cls._fields[0]
    for target in (first, "other"):
        with pytest.raises(AttributeError):
            setattr(v, target, values[0])
    with pytest.raises(AttributeError):
        delattr(v, first)
    assert getattr(v, first) is values[0]
    # == holds only within the class
    assert v != twin and v != values and not (v == values)
    copies = [pickle.loads(pickle.dumps(v)), copy.deepcopy(v), VALUES[name]()]
    assert all(c == v and c is not v for c in copies)
    try:
        expected = hash(twin)
    except TypeError:  # a dict field: as unhashable as the dataclass was
        for x in (v, *copies):
            with pytest.raises(TypeError):
                hash(x)
    else:
        assert {hash(x) for x in (v, *copies)} == {expected}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_trusted_builds_the_value_of_its_fields(name):
    v = VALUES[name]()
    cls = type(v)
    values = tuple(getattr(v, f) for f in cls._fields)
    # a lattice keeps its own hash beside the fields
    extra = {"_hash": hash(values)} if cls is IntegralLattice else {}
    x = cls._trusted(*values, **extra)
    assert type(x) is cls and x == v and repr(x) == repr(v)
    try:
        expected = hash(v)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    # the fields first, in order, as the constructors set them
    assert list(vars(x)) == [*cls._fields, *extra]
    with pytest.raises(AttributeError):
        setattr(x, cls._fields[0], values[0])


def test_values_skip_their_checks_only_through_trusted():
    # object.__new__ is called in _inputs alone, by Record._trusted, and the
    # per-class unchecked constructors it replaced are gone
    new_calls, names = [], set()
    for path in sorted(Path(nlk3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
                if node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object":
                    new_calls.append(path.name)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
    assert new_calls == ["_inputs.py"]
    assert names & {"_exact", "_reduced"} == set()
    assert "_trusted" in names


def test_witness_and_series_keep_their_fields():
    cand = h2().candidate
    assert cand.witness is not None
    assert (cand.norm, cand.divisibility, cand.witness) == (-2, 2, LatticeVector(cand.witness.coords))
    plain = type(cand)(cand.norm, cand.divisibility, cand.dual_class)
    assert plain.witness is None and plain != cand
    assert GenusTwoSeries({(1, 0, 1): 3}, 1, 1) == GenusTwoSeries({(1, 0, 1): Fraction(3), (0, 0, 0): 0}, 1, 1)
    assert IntegralLattice([[0, 1], [1, 0]]) != IntegralLattice([[0, 1], [1, 0]], ("e", "f"))


def test_cold_import_loads_no_dataclasses_or_resources():
    # -S: no site hooks, so nothing is preloaded behind nlk3's back
    code = (
        "import sys, nlk3\n"
        "nlk3.default_chi10_exponents(); nlk3.e4_series(); nlk3.e6_series(); nlk3.default_unigonal_table()\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'zipfile') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(nlk3.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
