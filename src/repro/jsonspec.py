"""One JSON codec for the spec dataclasses.

Every design point the system runs from — a campaign, a soak, a
fleet, a design space — is a frozen dataclass that crosses process
boundaries and lands in manifests as JSON.  :class:`JsonSpec` gives
all of them the same round trip, driven by the dataclass's own field
annotations, and the same fingerprint:

* :meth:`~JsonSpec.to_dict` writes every field in declaration order,
  tuples as lists;
* :meth:`~JsonSpec.from_dict` checks a payload against the
  annotations — an unknown key, a missing field without a default, or
  a value of the wrong JSON type raises :class:`SpecError` — and then
  calls the constructor, so each ``__post_init__`` still raises its
  own typed error;
* :meth:`~JsonSpec.digest` is the SHA-256 of the sorted-key JSON of
  :meth:`~JsonSpec.identity_dict`, cut to ``_digest_chars``.

Fields are JSON scalars (``bool``, ``int``, ``float``, ``str``),
``Optional`` scalars, or tuples of them.  A ``float`` field keeps an
int as given, so a payload round-trips — and hashes — exactly.

The manifests that carry specs on disk wrap them in an envelope of
lists (a campaign's shard records and key bits, a fleet's shard
entries); :func:`_check_envelope` checks that wrapper's shape before
any spec is decoded, raising the store's own error type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

__all__ = ["JsonSpec", "SpecError"]


class SpecError(ValueError):
    """A spec payload does not match its dataclass."""


def _check_envelope(manifest, path: str, error: type, lists: dict,
                    keys: tuple = ("spec",)) -> None:
    """Check a manifest's envelope; raise ``error`` naming ``path``.

    ``manifest`` must be a JSON object holding every key of ``keys``
    and of ``lists``.  ``lists`` maps a key to ``(description,
    item_ok)``: its value must be a list whose every item passes
    ``item_ok`` (``type(x) is int`` keeps ``true``/``false`` out of
    an int list).
    """
    if not isinstance(manifest, dict):
        raise error(f"{path} must hold a JSON object, "
                    f"got {type(manifest).__name__}")
    for key in (*keys, *lists):
        if key not in manifest:
            raise error(f"{path} lacks {key!r}")
    for key, (description, item_ok) in lists.items():
        value = manifest[key]
        if not isinstance(value, list) or not all(map(item_ok, value)):
            raise error(f"{path}: {key!r} must be {description}")


def _check(hint, value, where: str):
    """``value`` checked against the annotation ``hint``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint)
                   if arg is not type(None)]
        origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{where} must be a list, got {value!r}")
        element = typing.get_args(hint)[0]
        return tuple(_check(element, item, f"{where}[{i}]")
                     for i, item in enumerate(value))
    if hint is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, hint)
    if not ok or (isinstance(value, bool) and hint is not bool):
        raise SpecError(f"{where} must be {hint.__name__}, got {value!r}")
    return value


class JsonSpec:
    """Mixin giving a dataclass one JSON round trip and one digest."""

    #: Hex characters of :meth:`digest` (a class constant per spec).
    _digest_chars = 64

    def to_dict(self) -> dict:
        """Every field in declaration order, tuples as lists."""
        values = ((field.name, getattr(self, field.name))
                  for field in dataclasses.fields(self))
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in values}

    @classmethod
    def from_dict(cls, payload):
        """Inverse of :meth:`to_dict`; a missing field takes its
        default.  Raises :class:`SpecError` on a payload that does not
        match the annotations."""
        name = cls.__name__
        if not isinstance(payload, dict):
            raise SpecError(f"{name} payload must be an object, "
                            f"got {type(payload).__name__}")
        fields = {field.name: field for field in dataclasses.fields(cls)}
        unknown = sorted(map(repr, payload.keys() - fields.keys()))
        if unknown:
            raise SpecError(f"{name} has no field(s) {', '.join(unknown)}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, field in fields.items():
            if key in payload:
                kwargs[key] = _check(hints[key], payload[key],
                                     f"{name}.{key}")
            elif field.default is dataclasses.MISSING \
                    and field.default_factory is dataclasses.MISSING:
                raise SpecError(f"{name} payload lacks {key!r}")
        return cls(**kwargs)

    def identity_dict(self) -> dict:
        """The digest's view of the spec (all of it, by default)."""
        return self.to_dict()

    def digest(self) -> str:
        """Stable fingerprint of this spec."""
        payload = json.dumps(self.identity_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[
            :self._digest_chars]
