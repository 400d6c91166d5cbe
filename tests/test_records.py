"""The package's immutable records behave as frozen dataclasses did.

Each entry below builds one instance of a record from fresh field
values, so two builds are equal without being the same objects.  The
repr strings are pinned literally: they are part of what a user sees.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

import cayleydiff
from cayleydiff.boolean import BoolFunction, CensusReport, LeibnizReport, LeibnizTrial
from cayleydiff.cayley import AutomorphismCheck, CayleyGraph
from cayleydiff.differential import ChainRuleReport, DifferentialQuery
from cayleydiff.errors import DimMismatch, MalformedTable
from cayleydiff.gf2 import GF2Matrix
from cayleydiff.groups import FiniteGroup, GeneratingSet
from cayleydiff.scenarios import ScenarioResult
from cayleydiff.spaces import (
    FiniteMap,
    MapSpace,
    PrincipalFilter,
    ReflexiveDigraph,
    SpaceProperties,
)


def point():
    return ReflexiveDigraph((frozenset({0}),))


def edge():
    return ReflexiveDigraph((frozenset({0, 1}), frozenset({0, 1})))


def z2():
    return FiniteGroup(2, ((0, 1), (1, 0)), ("e", "a"))


def point_space():
    return MapSpace(point(), point(), (FiniteMap(1, 1, (0,)),), (frozenset({0}),))


def matrix(*row):
    return GF2Matrix(1, len(row), (row,))


def trial():
    return LeibnizTrial(matrix(0, 1), matrix(1, 0), matrix(1, 1), False)


# class -> (fields, defaults, fields outside == and hash, repr, an invalid
# construction with the error it raises); fields() returns fresh values
RECORDS = {
    FiniteMap: (
        lambda: {"dom_size": 2, "cod_size": 3, "values": (0, 2)},
        {},
        {},
        "FiniteMap(dom_size=2, cod_size=3, values=(0, 2))",
        ("FiniteMap(2, 3, (0, 3))", "DimMismatch"),
    ),
    ReflexiveDigraph: (
        lambda: {"nbhd": (frozenset({0, 1}), frozenset({0, 1}))},
        {},
        {},
        "ReflexiveDigraph(nbhd=(frozenset({0, 1}), frozenset({0, 1})))",
        ("ReflexiveDigraph((frozenset({1}), frozenset({1})))", "MalformedTable"),
    ),
    PrincipalFilter: (
        lambda: {"minset": frozenset({1, 2})},
        {},
        {},
        "PrincipalFilter(minset=frozenset({1, 2}))",
        ("PrincipalFilter(frozenset())", "MalformedTable"),
    ),
    MapSpace: (
        lambda: {
            "domain": point(),
            "codomain": point(),
            "maps": (FiniteMap(1, 1, (0,)),),
            "nbhd": (frozenset({0}),),
            "cayley": None,
        },
        {"cayley": None},
        {},
        "MapSpace(domain=ReflexiveDigraph(nbhd=(frozenset({0}),)), "
        "codomain=ReflexiveDigraph(nbhd=(frozenset({0}),)), "
        "maps=(FiniteMap(dom_size=1, cod_size=1, values=(0,)),), "
        "nbhd=(frozenset({0}),), cayley=None)",
        None,
    ),
    SpaceProperties: (
        lambda: {"is_T0": True, "is_T1": False, "is_discrete": False, "is_topological": True},
        {},
        {},
        "SpaceProperties(is_T0=True, is_T1=False, is_discrete=False, is_topological=True)",
        None,
    ),
    FiniteGroup: (
        lambda: {"order": 2, "table": ((0, 1), (1, 0)), "names": ("e", "a")},
        {"names": None},
        {"names": ("x", "y")},
        "FiniteGroup(order=2, table=((0, 1), (1, 0)), names=('e', 'a'))",
        None,
    ),
    GeneratingSet: (
        lambda: {"elements": (1,)},
        {},
        {},
        "GeneratingSet(elements=(1,))",
        None,
    ),
    CayleyGraph: (
        lambda: {"group": z2(), "gens": GeneratingSet((1,)), "digraph": edge()},
        {},
        {},
        "CayleyGraph(group=FiniteGroup(order=2, table=((0, 1), (1, 0)), "
        "names=('e', 'a')), gens=GeneratingSet(elements=(1,)), "
        "digraph=ReflexiveDigraph(nbhd=(frozenset({0, 1}), frozenset({0, 1}))))",
        ("CayleyGraph(z2(), GeneratingSet((1,)), point())", "DimMismatch"),
    ),
    AutomorphismCheck: (
        lambda: {"ok": False, "witness": "left multiplication by 1 is not a bijection"},
        {},
        {},
        "AutomorphismCheck(ok=False, witness='left multiplication by 1 is not a bijection')",
        None,
    ),
    DifferentialQuery: (
        lambda: {"space": point_space(), "f": FiniteMap(1, 1, (0,)), "a": 0},
        {},
        {},
        "DifferentialQuery(space=MapSpace(domain=ReflexiveDigraph(nbhd=(frozenset({0}),)), "
        "codomain=ReflexiveDigraph(nbhd=(frozenset({0}),)), "
        "maps=(FiniteMap(dom_size=1, cod_size=1, values=(0,)),), "
        "nbhd=(frozenset({0}),), cayley=None), "
        "f=FiniteMap(dom_size=1, cod_size=1, values=(0,)), a=0)",
        ("DifferentialQuery(point_space(), FiniteMap(1, 1, (0,)), 1)", "DimMismatch"),
    ),
    ChainRuleReport: (
        lambda: {
            "holds": False,
            "inner_differentials": (0,),
            "outer_differentials": (1, 2),
            "composite_differentials": (),
            "violations": ((1, 0),),
            "missing_composites": ((2, 0),),
        },
        {},
        {},
        "ChainRuleReport(holds=False, inner_differentials=(0,), "
        "outer_differentials=(1, 2), composite_differentials=(), "
        "violations=((1, 0),), missing_composites=((2, 0),))",
        None,
    ),
    GF2Matrix: (
        lambda: {"rows": 1, "cols": 2, "bits": ((0, 1),)},
        {},
        {},
        "GF2Matrix(rows=1, cols=2, bits=((0, 1),))",
        ("GF2Matrix(1, 2, ((0, 2),))", "DimMismatch"),
    ),
    BoolFunction: (
        lambda: {"m": 1, "n": 1, "table": ((0,), (1,))},
        {},
        {},
        "BoolFunction(m=1, n=1, table=((0,), (1,)))",
        ("BoolFunction(1, 1, ((0,),))", "DimMismatch"),
    ),
    CensusReport: (
        lambda: {
            "m": 1,
            "differentiable": (True, False),
            "expected": (True, True),
            "matches": False,
        },
        {},
        {},
        "CensusReport(m=1, differentiable=(True, False), expected=(True, True), "
        "matches=False)",
        None,
    ),
    LeibnizTrial: (
        lambda: {
            "outer": matrix(0, 1),
            "inner": matrix(1, 0),
            "candidate": matrix(1, 1),
            "is_differential": False,
        },
        {},
        {},
        "LeibnizTrial(outer=GF2Matrix(rows=1, cols=2, bits=((0, 1),)), "
        "inner=GF2Matrix(rows=1, cols=2, bits=((1, 0),)), "
        "candidate=GF2Matrix(rows=1, cols=2, bits=((1, 1),)), is_differential=False)",
        None,
    ),
    LeibnizReport: (
        lambda: {"total": 1, "satisfied": 0, "trials": (trial(),)},
        {},
        {},
        "LeibnizReport(total=1, satisfied=0, trials=(LeibnizTrial("
        "outer=GF2Matrix(rows=1, cols=2, bits=((0, 1),)), "
        "inner=GF2Matrix(rows=1, cols=2, bits=((1, 0),)), "
        "candidate=GF2Matrix(rows=1, cols=2, bits=((1, 1),)), is_differential=False),))",
        None,
    ),
    ScenarioResult: (
        lambda: {"name": "pentacle", "ok": True, "detail": "N(p) omits (p+3) mod 5"},
        {},
        {},
        "ScenarioResult(name='pentacle', ok=True, detail='N(p) omits (p+3) mod 5')",
        None,
    ),
}


@pytest.fixture(scope="module")
def errors_under_O():
    """The error each invalid construction raises in one ``python -O`` run."""
    script = textwrap.dedent("""
        import test_records

        for cls, entry in test_records.RECORDS.items():
            if entry[4] is not None:
                try:
                    eval(entry[4][0], vars(test_records))
                except Exception as exc:
                    print(cls.__name__, type(exc).__name__)
                else:
                    print(cls.__name__, "none")
    """)
    src = os.path.dirname(os.path.dirname(cayleydiff.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls, errors_under_O):
    fields, defaults, ignored, want_repr, invalid = RECORDS[cls]

    # keyword and positional construction agree, and defaults apply
    by_keyword = cls(**fields())
    by_position = cls(*fields().values())
    for name, value in fields().items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) == value
    required = {k: v for k, v in fields().items() if k not in defaults}
    with_defaults = cls(**required)
    for name, value in defaults.items():
        assert getattr(with_defaults, name) == value

    # arguments bind as they do to a function with the fields as parameters
    first = next(iter(fields()))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields().items() if k != first})
    with pytest.raises(TypeError):
        cls(**fields(), extra=None)
    with pytest.raises(TypeError):
        cls(*fields().values(), None)
    with pytest.raises(TypeError):
        cls(fields()[first], **fields())

    # == and hash over the compared fields, and only within one class
    assert by_keyword == by_position and not by_keyword != by_position
    compared = tuple(v for k, v in fields().items() if k not in ignored)
    assert hash(by_keyword) == hash(by_position) == hash(compared)
    other_class = type("Other", (cls,), {})
    assert by_keyword != other_class(**fields())
    assert by_keyword != tuple(fields().values())
    if ignored:
        renamed = cls(**{**fields(), **ignored})
        assert renamed == by_keyword and hash(renamed) == hash(by_keyword)
        assert repr(renamed) != repr(by_keyword)

    assert repr(by_keyword) == want_repr

    # frozen: no field can be assigned or deleted, nor a new attribute added
    for name in (first, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(by_keyword, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(by_keyword, name)
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
    assert getattr(by_keyword, first) == fields()[first]

    # validation raises typed errors, with and without python -O
    if invalid is not None:
        source, error = invalid
        errors = {"DimMismatch": DimMismatch, "MalformedTable": MalformedTable}
        with pytest.raises(errors[error]):
            eval(source)
        assert errors_under_O[cls.__name__] == error


def test_finite_group_identity_is_the_constant_zero():
    g = z2()
    assert g.identity == FiniteGroup.identity == 0
    assert FiniteGroup.__match_args__ == ("order", "table", "names")
    # the identity is no field: it can be neither passed nor assigned
    with pytest.raises(TypeError):
        FiniteGroup(2, ((0, 1), (1, 0)), identity=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.identity = 1
