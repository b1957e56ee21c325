"""The mixin of the result records that compare by identity.

Every qlctx result record is a ``collections.namedtuple`` subclass with
``__slots__ = ()``: its fields are read-only, and it unpacks, indexes and
compares equal to the tuple of its fields.  A record that holds numpy
arrays or a search's output puts ``ByIdentity`` first among its bases, so
it compares and hashes as a plain object does.
"""

from __future__ import annotations


class ByIdentity:
    """Equal only to itself, and hashed by identity, whatever its fields."""

    __slots__ = ()

    # tuple's own __ne__ would compare the fields, so both are given
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__
