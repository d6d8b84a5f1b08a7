"""Value semantics of the record types: construction by position or keyword
in field order, equality by class and fields, hashing and immutability for
the frozen ones, the defaults and the construction checks."""

import copy
import itertools
from fractions import Fraction as F

import pytest

from lieembed.corpus import CaseResult
from lieembed.embed import CartanData, EmbeddingTrace, TraceStep
from lieembed.exactlin import ExactScalar
from lieembed.liecore import JordanPair, LeviDecomposition
from lieembed.rootsys import DynkinDiagram, Root, RootSpaceDecomposition
from lieembed.vecfield import GeneratorCatalog, MPoly, PolyVectorField

# class -> its fields in order, two field tuples of unequal values
FROZEN = {
    ExactScalar: (("a", "b", "d"), (F(1), F(2), 3), (F(1), F(-2), 3)),
    LeviDecomposition: (("radical", "levi"), ("r", "s"), ("r", "t")),
    JordanPair: (("semisimple", "nilpotent", "center_obstructed"),
                 ((F(1), F(0)), (F(0), F(1)), False),
                 ((F(1), F(0)), (F(0), F(1)), True)),
    Root: (("values",), ((F(1), F(0)),), ((F(0), F(1)),)),
    RootSpaceDecomposition: (("algebra", "cartan_basis", "pairs", "zero_space"),
                             ("L", (1,), (), "z"), ("L", (2,), (), "z")),
    DynkinDiagram: (("nodes", "bonds", "type_label"),
                    ((), (), "A1"), ((), (), "A2")),
    CartanData: (("cartan", "real_part", "compact_part"),
                 ("h", "a", "t"), ("h", "t", "a")),
    PolyVectorField: (("name", "variables", "components"),
                      ("v", ("x",), (MPoly(1, {(1,): F(1)}),)),
                      ("v", ("x",), (MPoly(1, {(2,): F(1)}),))),
    GeneratorCatalog: (("name", "variables", "fields"),
                       ("c", ("x",), ()), ("d", ("x",), ())),
}
MUTABLE = {
    TraceStep: (("rule", "adjoined", "dim_after"), ("3.1", ((F(1),),), 1),
                ("3.1", ((F(1),),), 2)),
    EmbeddingTrace: (("algebra", "start", "steps"), ("L", "U", []), ("L", "U", [1])),
    CaseResult: (("name", "passed", "diffs"), ("g2", True, []), ("g2", False, [])),
}
ALL = {**FROZEN, **MUTABLE}
CUSTOM_REPR = {ExactScalar, Root}


def _ids(classes):
    return [c.__name__ for c in classes]


@pytest.mark.parametrize("cls", list(ALL), ids=_ids(ALL))
def test_equality_by_fields(cls):
    names, args, other = ALL[cls]
    x = cls(*args)
    assert x == cls(*args) and not x != cls(*args)
    assert x != cls(*other) and not x == cls(*other)
    assert x == cls(**dict(zip(names, args)))
    assert tuple(getattr(x, n) for n in names) == args
    assert x != args  # not a tuple of its fields
    assert copy.copy(x) == x and copy.deepcopy(x) == x


def test_no_equality_across_classes():
    args = ("n", (1,), (2,))  # accepted by every three-field class
    three = [c for c, (names, *_) in ALL.items() if len(names) == 3]
    assert len(three) == 9
    for a, b in itertools.combinations(three, 2):
        assert a(*args) != b(*args) and b(*args) != a(*args)


def test_exact_scalar_is_not_equal_to_a_fraction():
    x = ExactScalar(F(0), F(1), 2)
    assert x != F(0) and F(0) != x and x != 0


@pytest.mark.parametrize("cls", list(ALL), ids=_ids(ALL))
def test_construction_arity(cls):
    names, args, _ = ALL[cls]
    with pytest.raises(TypeError):
        cls(*args, "extra")
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args[:-1], unknown=1)


@pytest.mark.parametrize("cls", [c for c in ALL if c not in CUSTOM_REPR],
                         ids=_ids(c for c in ALL if c not in CUSTOM_REPR))
def test_repr_names_fields(cls):
    names, args, _ = ALL[cls]
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_custom_reprs_kept():
    assert repr(ExactScalar(F(1), F(-1, 2), 3)) == "(1+-1/2*sqrt(3))"
    assert repr(Root((F(1), F(-1, 2)))) == "(1, -1/2)"


@pytest.mark.parametrize("cls", list(FROZEN), ids=_ids(FROZEN))
def test_frozen_hashable_and_immutable(cls):
    names, args, other = FROZEN[cls]
    x, y, z = cls(*args), cls(*args), cls(*other)
    assert hash(x) == hash(y)
    assert {x, y, z} == {x, z} and len({x, y, z}) == 2
    assert {x: 1, z: 2}[y] == 1
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, args[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, n) for n in names) == args


@pytest.mark.parametrize("cls", list(MUTABLE), ids=_ids(MUTABLE))
def test_mutable_unhashable(cls):
    names, args, other = MUTABLE[cls]
    x = cls(*args)
    with pytest.raises(TypeError):
        hash(x)
    setattr(x, names[-1], other[-1])
    assert x == cls(*args[:-1], other[-1])


def test_jordan_pair_default():
    s, n = (F(1), F(0)), (F(0), F(1))
    assert JordanPair(s, n).center_obstructed is False
    assert JordanPair(s, n) == JordanPair(s, n, False)
    assert JordanPair(semisimple=s, nilpotent=n) == JordanPair(s, n)
    assert JordanPair(s, n) != JordanPair(s, n, center_obstructed=True)


def test_embedding_trace_steps_fresh_per_instance():
    a, b = EmbeddingTrace("L", "U"), EmbeddingTrace("L", "U")
    assert a.steps == [] and a.steps is not b.steps
    a.steps.append(TraceStep("3.1", (), 0))
    assert b.steps == [] and a != b


def test_construction_checks():
    with pytest.raises(ValueError, match="^rational values are represented as Fraction$"):
        ExactScalar(F(1), F(0), 2)
    with pytest.raises(ValueError, match="^a root is a nonzero functional$"):
        Root((F(0), F(0)))
    with pytest.raises(ValueError, match="^component count != variable count$"):
        PolyVectorField("v", ("x", "y"), (MPoly(2, {}),))
