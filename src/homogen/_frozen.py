"""``Frozen``, the base of homogen's immutable record classes.

A subclass names its fields in ``__slots__``, and ``Frozen.__init__`` binds
each once, by position and then by keyword. A subclass that checks its
arguments does so in its own ``__init__`` before calling ``super().__init__``.
The records built per Karel record or statement (``KarelGrid``, ``Pred``,
``Action``, ``Repeat``) set their fields with ``object.__setattr__`` instead,
as the binder doubles the cost of a two-field record and ``super()`` about
quadruples that of a one-field one. ``==``, ``hash`` and ``repr`` follow the
frozen-dataclass rules, assigning or deleting a field raises
``AttributeError``, and pickle and ``deepcopy`` rebuild a record through
``__init__``, which checks it again. Unlike ``@dataclass(frozen=True)``, it
costs a process no ``dataclasses`` import and no per-class ``exec`` at start.
"""

from typing import Any

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if len(args) + len(kwargs) != len(names) or (
                kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{self.__class__.__qualname__} takes each field of {names} once, "
                            f"not {len(args)} positional argument(s) and keywords {list(kwargs)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name, value in kwargs.items():
            _set(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return self.__class__, self._values()
