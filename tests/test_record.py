"""`brts.record` against the standard library's `dataclasses`: every record
class of the package and a `make_dataclass` twin with the same fields,
defaults and frozen flag construct, compare, hash, print, match and
`replace` alike."""

import dataclasses
import re
from pathlib import Path

import pytest

import brts.cli  # noqa: F401  - loads every module on the command line's path
import brts.counters
import brts.gen
from brts.counters import CounterMachine
from brts.presburger import And, _cached_hash
from brts.record import record, replace

SRC = Path(__file__).parent.parent / "src" / "brts"
MODULES = ["diagnostics", "presburger", "syntax", "typecheck", "interp", "counters", "gen"]

# the records declared without frozen=True; the rest hash by their fields
NOT_FROZEN = {"Diagnostic", "Binding", "Obligation", "TraceEntry", "StateInfo",
              "CounterMachine", "Lts", "Counterexample",
              "WitnessPath", "GenMethod", "GenSpec"}


def record_classes():
    out = []
    for name in MODULES:
        module = getattr(brts, name)
        out += [c for c in vars(module).values()
                if isinstance(c, type) and c.__module__ == module.__name__
                and "_fields" in vars(c) and not issubclass(c, tuple)]
    return out


RECORDS = record_classes()


def twin(cls):
    fields = []
    for name in cls._fields:
        if name in vars(cls):
            fields.append((name, object, dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append((name, object))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=cls.__name__ not in NOT_FROZEN)


def sample(cls, tag: str) -> tuple:
    # hashable stand-ins; a machine with no transitions passes __post_init__
    return tuple(() if cls is CounterMachine and name == "transitions" else (tag, name)
                 for name in cls._fields)


def hash_or_unhashable(obj):
    try:
        return hash(obj)
    except TypeError:
        return "unhashable"


def test_every_record_class_is_found():
    assert len(RECORDS) == 65
    assert NOT_FROZEN <= {c.__name__ for c in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_record_agrees_with_dataclass(cls):
    dc = twin(cls)
    a, b = sample(cls, "a"), sample(cls, "b")
    ra, rb, da, db = cls(*a), cls(*b), dc(*a), dc(*b)
    assert repr(ra) == repr(da)
    assert cls.__match_args__ == dc.__match_args__ == cls._fields
    assert (ra == cls(*a), ra == rb, ra != rb) == (da == dc(*a), da == db, da != db)
    assert hash_or_unhashable(ra) == hash_or_unhashable(da)
    keywords = dict(zip(cls._fields, a))
    assert repr(cls(**keywords)) == repr(dc(**keywords))
    required = sum(1 for f in dataclasses.fields(dc)
                   if f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING)
    assert repr(cls(*a[:required])) == repr(dc(*a[:required]))
    if required:
        with pytest.raises(TypeError):
            cls(*a[:required - 1])
    for name, value in zip(cls._fields, b):
        assert repr(replace(ra, **{name: value})) == repr(dataclasses.replace(da, **{name: value}))
    with pytest.raises(TypeError):
        replace(ra, nope=1)


def test_records_of_different_classes_are_unequal():
    # same field values, different classes: both sides answer NotImplemented
    for cls, other in zip(RECORDS, RECORDS[1:]):
        a, b = cls(*sample(cls, "a")), other(*sample(other, "a"))
        assert cls.__eq__(a, b) is NotImplemented
        assert twin(cls).__eq__(twin(cls)(*sample(cls, "a")), b) is NotImplemented
        assert a != b and not a == b


def test_explicit_hash_in_the_class_body_wins():
    assert And.__hash__ is _cached_hash
    node = And(("p", "q"))
    assert hash(node) == hash((("p", "q"),))
    # the cached hash sits beside the fields, out of ==, repr and replace
    assert node == And(("p", "q")) and repr(node) == "And(parts=('p', 'q'))"
    assert replace(node, parts=("r",)) == And(("r",))


def test_methods_in_the_class_body_win_and_post_init_runs():
    @record(frozen=True)
    class Pair:
        left: int
        right: int = 0

        def __repr__(self):
            return f"<{self.left}, {self.right}>"

        def __post_init__(self):
            self.total = self.left + self.right

    pair = Pair(1, right=2)
    assert repr(pair) == "<1, 2>" and pair.total == 3
    assert Pair(1) == Pair(1, 0) and hash(Pair(1)) == hash((1, 0))
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")


def test_no_module_imports_dataclasses():
    offenders = [p.name for p in sorted(SRC.glob("*.py"))
                 if re.search(r"^\s*(import|from)\s+dataclasses\b", p.read_text(), re.M)]
    assert offenders == []
