"""The base of the package's immutable value classes."""

# sets a field past Frozen.__setattr__; each __init__ sets its fields
# through it, one call a field, which builds a RingField (one at every
# strategy-1 quadrature node) faster than a frozen dataclass did
set_field = object.__setattr__


class Frozen:
    """Base of an immutable value class, in place of @dataclass(frozen=True).

    Every command is a fresh process, and start-up is most of a short
    command's time. Importing dataclasses costs 7-8 ms, since it loads
    inspect, ast, dis and tokenize, and each frozen dataclass then compiles
    its generated methods with exec, about 0.6 ms a class (CPython 3.11 on
    a 2-vCPU Xeon); setting up a command defined seven of them.

    A subclass lists its fields in __slots__, in the order of its
    __init__'s parameters, and its __init__ sets each with set_field, then
    runs its checks. Frozen keeps a frozen dataclass's contract: assigning
    or deleting a field raises AttributeError; instances are equal when
    their classes are the same and their fields equal, and hash as the
    tuple of their fields; repr reads Name(field=value, ...); and
    replace(**changes) is a copy built through __init__, so the checks run
    again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with some fields changed, checked as a new instance is."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__},
                             **changes})
