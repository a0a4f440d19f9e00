"""Value records, written without ``dataclasses``.

Every ``circlebops`` command runs in a fresh interpreter.  Importing
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
each ``@dataclass`` then builds its methods as source text and ``exec``s it;
the ``.pyc`` files cache none of that, so every process would pay about
25 ms for it.  The record classes are plain classes with an explicit
``__init__`` instead, and these two bases give them the one rule for
equality and repr: over the fields named in ``_fields``, in order.  A cache
kept on a record is not a field and takes no part in either; ``Memo`` holds
the one rule for such caches.
"""

from mpmath import mp


class Memo:
    """Derived values in the dict ``_memo``, keyed by what each is and by
    mp.prec: a value cached at one precision never serves another."""

    def memo(self, what, make):
        key = (what, mp.prec)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got


class Record:
    """Value equality and repr over ``_fields``; mutable and unhashable."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """A record that refuses assignment and hashes by value.

    ``__init__`` stores its attributes with ``_init``.
    """

    def _init(self, **attrs) -> None:
        vars(self).update(attrs)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
