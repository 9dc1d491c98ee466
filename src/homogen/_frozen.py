"""``Frozen``, the base of homogen's immutable record classes.

A subclass names its fields in ``__slots__`` and sets each one in its own
``__init__`` through ``object.__setattr__``. ``==``, ``hash`` and ``repr``
follow the frozen-dataclass rules, setting or deleting an attribute raises
``AttributeError``, and pickle and ``deepcopy`` rebuild a record through
``__init__``, which checks it again. It replaces ``@dataclass(frozen=True)``,
which cost every ``homogen`` process 13-18 ms at start to import
``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``) and
about 1 ms per class to ``exec`` its methods.
"""

from typing import Any


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

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
