"""Frozen records: what ``@dataclass(frozen=True)`` gives a class, without
importing :mod:`dataclasses`, which with :mod:`inspect` costs more than the
rest of pvi's startup.  ``__init__``, ``__eq__``, ``__hash__`` and the order
methods are compiled in one piece per class from the code dataclass generates,
except that ``__init__`` stores each field where an instance keeps it, through
the field's slot descriptor or in the instance dict, without the generic
setattr; the constructor is the one way to build a record.
``__dataclass_fields__`` and ``__dataclass_params__`` come from
``dataclasses.make_dataclass`` on first read, so ``fields``, ``replace``,
``asdict``, ``astuple`` and ``is_dataclass`` work on records.
"""

from types import MemberDescriptorType

_MISSING = object()


class field:
    """A field's default, and whether ``==`` and the hash read the field."""

    def __init__(self, *, default=_MISSING, compare=True):
        self.default, self.compare = default, compare


def record(cls=None, /, *, order=False):
    """``@record`` or ``@record(order=True)``: give cls ``__init__`` (calling any
    ``__post_init__``), ``__eq__``, ``__hash__``, the order methods if asked,
    ``__repr__``, ``__replace__``, ``__match_args__`` and ``__setattr__``/``__delattr__``
    that raise ``dataclasses.FrozenInstanceError``, keeping any it defines itself."""
    if cls is None:
        return lambda cls: record(cls, order=order)
    specs, slots = [], {}  # (name, default, compare); {name: its slot's setter}
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, MemberDescriptorType):  # a slot: no default, stored by its setter
            slots[name], spec = spec.__set__, field()
        elif not isinstance(spec, field):  # a plain default
            spec = field(default=spec)
        elif spec.default is not _MISSING:
            setattr(cls, name, spec.default)
        specs.append((name, spec.default, spec.compare))
    names = tuple(name for name, _, _ in specs)
    mine = "(" + "".join(f"self.{n}, " for n, _, compare in specs if compare) + ")"
    params = ", ".join(n if d is _MISSING else f"{n}=_d_{n}" for n, d, _ in specs)
    lines = [f"def __init__(self, {params}):",
             "    _dict = self.__dict__" if len(slots) < len(names) else "",
             *(f"    _s_{n}(self, {n})" if n in slots else f"    _dict[{n!r}] = {n}"
               for n in names),
             "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
             f"def __hash__(self):\n    return hash({mine})"]
    ops = {"eq": "=="} | ({"lt": "<", "le": "<=", "gt": ">", "ge": ">="} if order else {})
    for fn, op in ops.items():
        lines.append(f"def __{fn}__(self, other):\n    if other.__class__ is self.__class__:\n"
                     f"        return {mine} {op} {mine.replace('self.', 'other.')}\n"
                     "    return NotImplemented")
    methods = {}
    exec(compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec"),
         {**{f"_d_{n}": d for n, d, _ in specs},
          **{f"_s_{n}": setter for n, setter in slots.items()}}, methods)
    for fn in methods.values():
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    if "__slots__" in cls.__dict__:  # the default reduction sets slots through __setattr__
        methods["__reduce__"] = _reduce
    methods.update(__repr__=_repr, __replace__=_replace, __setattr__=_refuse_set,
                   __delattr__=_refuse_delete)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    cls.__match_args__ = names
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _Protocol(name, specs, order))
    return cls


def _reduce(self):
    return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def _replace(self, /, **changes):  # copy.replace, from Python 3.13
    return self.__class__(**{name: getattr(self, name) for name in self.__match_args__} | changes)


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _refuse_set(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Protocol:
    """A class attribute that builds the dataclass protocol on first read."""

    def __init__(self, name, specs, order):
        self.name, self.specs, self.order = name, specs, order

    def __get__(self, instance, cls):
        import dataclasses
        twin = dataclasses.make_dataclass(cls.__name__, [
            (n, cls.__annotations__[n], dataclasses.field(
                default=dataclasses.MISSING if d is _MISSING else d, compare=c))
            for n, d, c in self.specs], frozen=True, order=self.order)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(cls, self.name)
