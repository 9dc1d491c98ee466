"""Every ``Frozen`` record class behaves as the frozen dataclass it stands in
for: the same ``repr``, ``==``, ``hash``, immutability, copies and
construction errors.

Each reference below is the frozen dataclass of the same name, fields,
defaults and ``__post_init__`` checks, built with ``make_dataclass``.
"""

import copy
import math
import pickle
from dataclasses import field, make_dataclass
from typing import Any

import pytest

from homogen import calc
from homogen._frozen import Frozen
from homogen.diagnostics import CurvePoint
from homogen.homogenizer import SalientSpec
from homogen.karel.gen import MarkerCountDist, NarrowGridParams, SynthesisTask
from homogen.karel.interp import CompiledProgram
from homogen.karel.lang import (
    ACTIONS,
    MAX_REPEAT,
    PREDICATES,
    Action,
    If,
    IfElse,
    KarelProgram,
    Not,
    Pred,
    Repeat,
    While,
)
from homogen.karel.world import KarelGrid


def _p_check(self):
    if not 0.0 < self.p < 1.0:
        raise ValueError("p must be in (0, 1)")


def _t2t_check(self):
    if not (type(self.max_depth) is int and 1 <= self.max_depth <= calc.MAX_NESTING):
        raise ValueError(f"max_depth must be in 1..{calc.MAX_NESTING}")


def _spec_check(self):
    object.__setattr__(self, "domain", tuple(self.domain))
    if not self.domain:
        raise ValueError("salient domain must be non-empty")
    if len(set(self.domain)) != len(self.domain):
        raise ValueError("salient domain contains duplicate values")


def _name_check(names, kind):
    def check(self):
        if self.name not in names:
            raise ValueError(f"unknown {kind} {self.name!r}")
    return check


def _repeat_check(self):
    if not (type(self.times) is int and 0 <= self.times <= MAX_REPEAT):
        raise ValueError(f"repeat count must be in 0..{MAX_REPEAT}")


def _narrow_check(self):
    if not (0.0 <= self.r_wall < 1.0 and 0.0 <= self.r_marker <= 1.0):
        raise ValueError("r_wall must be in [0, 1) and r_marker in [0, 1]")
    if self.r_wall + self.r_marker > 1.0:
        raise ValueError("r_wall + r_marker must not exceed 1")


def _reference(cls, fields, check=None):
    """The frozen dataclass named as ``cls``, with ``check`` as its
    ``__post_init__``."""
    namespace = {"__post_init__": check} if check else {}
    return make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


_PROGRAM = KarelProgram((Action("move"), If(Pred("frontIsClear"), (Action("turnLeft"),))))
_GRID = KarelGrid(4, 3, frozenset({(1, 1)}), {(0, 0): 2}, (3, 2), "N")
_OTHER_GRID = KarelGrid(5, 5)

# (class, reference fields, reference check, valid field values, invalid
# keyword arguments). Every valid field value pickles, and no set holds
# more than one item, so a copy's repr lists its items in the same order.
CASES: list[tuple[type, list, Any, list[dict], list[dict]]] = [
    (calc.Dcfg, [("p", float, 0.3)], _p_check,
     [{}, {"p": 0.1}],
     [{"p": 0.0}, {"p": 1.0}, {"p": math.nan}]),
    (calc.T2t, [("max_depth", int, 8)], _t2t_check,
     [{}, {"max_depth": 3}],
     [{"max_depth": 0}, {"max_depth": 501}, {"max_depth": 2.5}, {"max_depth": True}]),
    (calc.Rcfg, [("p", float, 0.3)], _p_check,
     [{}, {"p": 0.2}],
     [{"p": 1.5}, {"p": 0}]),
    (calc.Bal, [], None, [{}], []),
    (CurvePoint,
     [("epsilon", float), ("draws_per_accept", float), ("bound", float), ("stderr", float)],
     None,
     [{"epsilon": 0.1, "draws_per_accept": 2.5, "bound": 11.0, "stderr": 0.1},
      {"epsilon": 0.5, "draws_per_accept": 1.5, "bound": 3.0, "stderr": 0.0}],
     []),
    (SalientSpec, [("name", str), ("domain", tuple), ("extract", Any)], _spec_check,
     [{"name": "size", "domain": (1, 2, 3), "extract": len},
      {"name": "x", "domain": ("a",), "extract": abs}],
     [{"name": "x", "domain": (), "extract": len},
      {"name": "x", "domain": (1, 1), "extract": len}]),
    (Pred, [("name", str)], _name_check(PREDICATES, "predicate"),
     [{"name": "frontIsClear"}, {"name": "markersPresent"}],
     [{"name": "move"}, {"name": ""}]),
    (Not, [("cond", Any)], None,
     [{"cond": Pred("leftIsClear")}, {"cond": Not(Pred("leftIsClear"))}],
     []),
    (Action, [("name", str)], _name_check(ACTIONS, "action"),
     [{"name": "move"}, {"name": "putMarker"}],
     [{"name": "frontIsClear"}, {"name": "jump"}]),
    (If, [("cond", Any), ("body", tuple)], None,
     [{"cond": Pred("frontIsClear"), "body": (Action("move"),)},
      {"cond": Not(Pred("frontIsClear")), "body": ()}],
     []),
    (IfElse, [("cond", Any), ("then_body", tuple), ("else_body", tuple)], None,
     [{"cond": Pred("frontIsClear"), "then_body": (Action("move"),),
       "else_body": (Action("turnLeft"),)},
      {"cond": Pred("rightIsClear"), "then_body": (), "else_body": ()}],
     []),
    (While, [("cond", Any), ("body", tuple)], None,
     [{"cond": Pred("frontIsClear"), "body": (Action("move"),)},
      {"cond": Pred("markersPresent"), "body": (Action("pickMarker"),)}],
     []),
    (Repeat, [("times", int), ("body", tuple)], _repeat_check,
     [{"times": 0, "body": (Action("move"),)}, {"times": MAX_REPEAT, "body": ()}],
     [{"times": MAX_REPEAT + 1, "body": ()}, {"times": -1, "body": ()},
      {"times": True, "body": ()}]),
    (KarelProgram, [("body", tuple)], None,
     [{"body": _PROGRAM.body}, {"body": ()}],
     []),
    (KarelGrid,
     [("width", int), ("height", int), ("walls", frozenset, frozenset()),
      ("markers", dict, field(default_factory=dict)), ("karel_pos", tuple, (0, 0)),
      ("karel_dir", str, "E")],
     KarelGrid.__dict__["__post_init__"],
     [{"width": 4, "height": 3, "walls": frozenset({(1, 1)}), "markers": {(0, 0): 2},
       "karel_pos": (3, 2), "karel_dir": "N"},
      {"width": 2, "height": 2}],
     [{"width": 1, "height": 4}, {"width": 4, "height": 4, "walls": frozenset({(4, 0)})},
      {"width": 4, "height": 4, "markers": {(0, 0): 10}},
      {"width": 4, "height": 4, "walls": frozenset({(1, 1)}), "markers": {(1, 1): 3}},
      {"width": 4, "height": 4, "walls": [[2, 2]], "karel_pos": [2, 2]},
      {"width": 4, "height": 4, "karel_pos": (4, 4)},
      {"width": 4, "height": 4, "karel_dir": "U"},
      {"width": 4, "height": 4, "walls": frozenset({(4, 0)}), "karel_dir": "U"}]),
    (CompiledProgram, [("code", Any), ("arms", frozenset)], None,
     [{"code": len, "arms": frozenset({(0, "then")})},
      {"code": abs, "arms": frozenset()}],
     []),
    (NarrowGridParams,
     [("r_wall", float), ("r_marker", float),
      ("marker_dist", MarkerCountDist, MarkerCountDist.GEOM)],
     _narrow_check,
     [{"r_wall": 0.25, "r_marker": 0.65},
      {"r_wall": 0.0, "r_marker": 1.0, "marker_dist": MarkerCountDist.UNIFORM}],
     [{"r_wall": 1.0, "r_marker": 0.0}, {"r_wall": 0.5, "r_marker": -0.1},
      {"r_wall": 0.6, "r_marker": 0.5}, {"r_wall": 1.0, "r_marker": 0.5}]),
    (SynthesisTask, [("program", Any), ("pairs", tuple), ("held_out", tuple)], None,
     [{"program": _PROGRAM, "pairs": ((_GRID, _OTHER_GRID),), "held_out": (_GRID, _GRID)},
      {"program": KarelProgram(()), "pairs": (), "held_out": (_OTHER_GRID, _GRID)}],
     []),
]

REFERENCES = {
    cls: _reference(cls, fields, check)
    for cls, fields, check, _, _ in CASES
}
BY_CLASS = pytest.mark.parametrize(
    "cls, valid, invalid", [(cls, valid, invalid) for cls, _, _, valid, invalid in CASES],
    ids=[case[0].__name__ for case in CASES],
)


def _pairs(cls, valid):
    """(record, reference) for each valid field set, the record built by
    keyword and by position."""
    for kwargs in valid:
        ref = REFERENCES[cls](**kwargs)
        yield cls(**kwargs), ref
        yield cls(*[getattr(ref, name) for name in ref.__match_args__]), ref


def _twins(record, ref):
    """A record and a dataclass of another class with the same name, fields
    and values."""
    twin = object.__new__(type(type(record).__name__, (Frozen,), {"__slots__": record.__slots__}))
    for name in record.__slots__:
        object.__setattr__(twin, name, getattr(record, name))
    fields = ref.__match_args__
    ref_twin = _reference(type(record), fields)(*[getattr(ref, name) for name in fields])
    return twin, ref_twin


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc), str(exc)


@BY_CLASS
def test_record_matches_frozen_dataclass(cls, valid, invalid):
    ref_cls = REFERENCES[cls]
    assert cls.__match_args__ == ref_cls.__match_args__
    records = list(_pairs(cls, valid))
    for record, ref in records:
        assert repr(record) == repr(ref)
        assert _hash_or_error(record) == _hash_or_error(ref)
        for other, ref_other in records:
            assert (record == other) == (ref == ref_other)
            assert (record != other) == (ref != ref_other)
        # Neither equals an object of another class: one of the same name
        # and field values, the other's counterpart, or the plain tuple of
        # the fields.
        twin, ref_twin = _twins(record, ref)
        assert repr(twin) == repr(record) and repr(ref_twin) == repr(ref)
        fields_tuple = tuple(getattr(ref, name) for name in ref_cls.__match_args__)
        for a, b in ((record, twin), (ref, ref_twin), (record, ref), (ref, record),
                     (record, fields_tuple), (ref, fields_tuple)):
            assert a != b and not a == b
        for name in ref_cls.__match_args__:
            for obj in (record, ref):
                with pytest.raises(AttributeError):
                    setattr(obj, name, getattr(obj, name))
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1


@BY_CLASS
def test_record_copies_and_pickles_to_an_equal_record(cls, valid, invalid):
    for kwargs in valid:
        record = cls(**kwargs)
        ref = REFERENCES[cls](**kwargs)
        assert copy.copy(record) == record
        assert copy.deepcopy(ref) == ref
        copies = [copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(2, 6)]
        for duplicate in copies:
            assert type(duplicate) is cls
            assert repr(duplicate) == repr(record)
            assert duplicate == record


@BY_CLASS
def test_record_rejects_what_the_dataclass_rejects(cls, valid, invalid):
    for kwargs in invalid:
        with pytest.raises(ValueError) as expected:
            REFERENCES[cls](**kwargs)
        with pytest.raises(ValueError) as raised:
            cls(**kwargs)
        assert str(raised.value) == str(expected.value)


def test_unpickling_rebuilds_through_the_constructor():
    # A pickled grid's markers come back as a dict of its own, as any
    # validated grid's do.
    copied = pickle.loads(pickle.dumps(_GRID))
    assert copied.markers == _GRID.markers and copied.markers is not _GRID.markers


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_a_case():
    import homogen.cli  # noqa: F401  (loads every homogen module)

    defined = {cls for cls in _subclasses(Frozen) if cls.__module__.startswith("homogen.")}
    assert defined == {case[0] for case in CASES}


@pytest.mark.parametrize("cls, first, second", [
    (If, ("cond", Pred("frontIsClear")), ("body", ())),
    (Repeat, ("times", 2), ("body", ())),
], ids=["If", "Repeat"])
def test_wrong_arity_calls_raise_type_error(cls, first, second):
    # ``If`` binds its fields through ``Frozen.__init__``, ``Repeat``
    # through its own.
    (a, va), (b, vb) = first, second
    assert cls(va, **{b: vb}) == cls(**{a: va, b: vb})
    calls = [
        ((va, vb, vb), {}),  # too many positional arguments
        ((va, vb), {"extra": 1}),  # an unknown keyword
        ((va, vb), {a: va}),  # a field given twice
        ((va,), {a: va, b: vb}),
        ((va,), {}),  # a missing field
        ((), {b: vb}),
        ((), {}),
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)
