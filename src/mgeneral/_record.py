"""`record`: a frozen value class from its annotations, without `dataclasses`.

`dataclasses` imports `inspect`, `ast`, `dis`, `tokenize`, `copy` and
`linecache`, most of the start-up of `import mgeneral`; this decorator
gives the package's record types what they used of it.  The fields are the
class's own annotations, in order, and a class attribute is its field's
default.  The class gets `__init__` (which then runs `__post_init__` where
the class defines one), `__eq__` (same class, equal fields), `__hash__`
over the fields, `__repr__` as `Name(field=value, ...)`, a `__setattr__`
and `__delattr__` that raise `AttributeError`, and `__match_args__`, the
field names in order.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    # __init__ is generated source, as dataclasses does it: Python then checks
    # missing, unknown and repeated arguments, and help() shows the fields
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), scope)
    values = attrgetter(*names)  # the fields as a tuple (a lone field bare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (scope["__init__"], __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
