"""Record classes: plain classes whose methods come from their fields.

`@record` takes a class's own annotations as its fields, in order, and
gives the class:

- `_fields` and `__match_args__`, the field names;
- an `__init__` over the fields, by position or keyword, whose defaults are
  the class attributes of the same names; it ends by calling
  `__post_init__` when the class has one;
- `==` that compares the fields of two instances of the same class, and
  returns NotImplemented against any other class;
- `hash` of the tuple of fields for a `frozen` record; any other record is
  unhashable;
- `repr` as ``Name(field=value, ...)``.

A method the class body defines itself wins over the generated one.

Records are immutable by convention: nothing stops an assignment to a field
of a frozen record, so code never makes one and builds a changed copy with
`replace` instead.  Only `__init__` is compiled, with one small `exec` per
class; `==` and `hash` close over an `operator.attrgetter` of the fields,
and `repr` is one function for all records.
"""

from operator import attrgetter


def record(cls=None, /, *, frozen=False):
    """Class decorator, used as `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: _make_record(cls, frozen)
    return _make_record(cls, frozen)


def replace(obj, /, **changes):
    """A copy of a record with the named fields changed."""
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def _make_record(cls, frozen):
    names = tuple(cls.__annotations__)
    # the exec namespace binds each default to its field's name, so the
    # parameter list can say `name=name`
    namespace = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}={n}" if n in namespace else f", {n}" for n in names)
    body = [f"self.{n} = {n}" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self{params}):\n    " + "\n    ".join(body or ["pass"]),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    eq, hash_ = _compare(names)
    generated = {"_fields": names, "__match_args__": names, "__init__": init,
                 "__eq__": eq, "__hash__": hash_ if frozen else None, "__repr__": _repr}
    for name, value in generated.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


def _compare(names):
    """`__eq__` and `__hash__` over a key that fetches the fields."""
    if len(names) == 1:
        key = attrgetter(names[0])

        def __hash__(self):
            # the key is the bare value, but the hash is the 1-tuple's
            return hash((key(self),))
    else:
        key = attrgetter(*names) if names else _no_fields

        def __hash__(self):
            return hash(key(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__, __hash__


def _no_fields(obj):
    return ()


def _repr(self):
    inside = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({inside})"
