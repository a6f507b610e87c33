"""Every ``JsonSpec`` loader round-trips or fails with a typed error.

The spec payloads arrive from manifests a user can edit
(``manifest.json``, ``enrollment.json``, ``space.json``) and from
worker processes.  This fuzz mutates each class's ``to_dict()``
payloads — a key dropped or added, a value swapped for any JSON value
or for another value of the field's own type, a payload that is not
an object — and feeds them to ``from_dict``.  A spec that loads must
survive a ``json`` round trip unchanged; a payload that does not load
must raise
:class:`~repro.jsonspec.SpecError` or the class's own validation error
(a ``ValueError``, or :class:`~repro.server.EnrollmentError` for
:class:`~repro.server.EnrollmentSpec`), never a ``TypeError``,
``KeyError`` or ``AttributeError``.
"""

import ast
import json
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec
from repro.campaign.chaos import ChaosConfig
from repro.jsonspec import SpecError
from repro.server.enrollment import EnrollmentSpec
from repro.server.errors import EnrollmentError

from .test_spec_golden import SPECS

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CLASSES = sorted({type(spec) for spec in SPECS.values()},
                 key=lambda cls: cls.__name__)

#: Any JSON value (standard JSON: no NaN or infinities).
JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def typed(hint):
    """Values of the annotation ``hint``: what reaches ``__post_init__``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        (inner,) = [arg for arg in typing.get_args(hint)
                    if arg is not type(None)]
        return st.none() | typed(inner)
    if origin is tuple:
        return st.lists(typed(typing.get_args(hint)[0]), max_size=3)
    return {bool: st.booleans(), int: st.integers(),
            float: st.integers() | st.floats(allow_nan=False,
                                             allow_infinity=False),
            str: st.text(max_size=6)}[hint]


def errors(cls):
    """What ``cls.from_dict`` may raise on a bad payload."""
    return (SpecError, EnrollmentError) if cls is EnrollmentSpec \
        else ValueError


@st.composite
def payloads(draw, cls):
    """A mutated ``to_dict()`` payload of one ``cls`` instance."""
    spec = draw(st.sampled_from([s for s in SPECS.values()
                                 if type(s) is cls]))
    payload = spec.to_dict()
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON.filter(lambda value: not isinstance(value, dict)))
    hints = typing.get_type_hints(cls)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("drop", "add", "swap", "retype")))
        if kind == "add":
            payload[draw(st.text(min_size=1, max_size=6))] = draw(JSON)
        elif payload:
            key = draw(st.sampled_from(sorted(payload)))
            if kind == "drop":
                del payload[key]
            elif kind == "swap" or key not in hints:
                payload[key] = draw(JSON)
            else:
                payload[key] = draw(typed(hints[key]))
    return payload


def _json_spec_classes():
    """Names of every class in ``src/repro`` that inherits JsonSpec."""
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) == "JsonSpec"
                    for base in node.bases):
                yield node.name


def test_every_json_spec_class_is_fuzzed():
    assert sorted(_json_spec_classes()) == \
        sorted(cls.__name__ for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_payloads_round_trip_or_raise_typed(cls, data):
    payload = data.draw(payloads(cls))
    try:
        spec = cls.from_dict(payload)
    except errors(cls):
        return
    again = cls.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.digest() == spec.digest()


class TestContract:
    """The codec's rules, one case each."""

    @pytest.mark.parametrize("payload", [
        [], "n_traces=8", None,
        {},
        {"n_traces": 8, "bogus": 1},
        {"n_traces": True},
        {"n_traces": 8.0},
        {"n_traces": 8, "seed": "7"},
        {"n_traces": 8, "seed": None},
        {"n_traces": 8, "noise_sigma": "38"},
        {"n_traces": 8, "noise_sigma": False},
        {"n_traces": 8, "dedicated_squarer": 1},
        {"n_traces": 8, "curve": 163},
        {"n_traces": 8, "key": "zz"},
        {"n_traces": 8, "key": 1.5},
    ], ids=repr)
    def test_campaign_payloads_rejected(self, payload):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(payload)

    def test_missing_field_takes_its_default(self):
        assert CampaignSpec.from_dict({"n_traces": 8}) == \
            CampaignSpec(n_traces=8)

    def test_float_field_keeps_an_int_as_given(self):
        spec = CampaignSpec.from_dict({"n_traces": 8, "noise_sigma": 0})
        assert type(spec.noise_sigma) is int
        assert spec.digest() == CampaignSpec(n_traces=8,
                                             noise_sigma=0).digest()

    def test_key_reads_hex_or_int(self):
        for key in ("0x1f", "1f", 31):
            assert CampaignSpec.from_dict(
                {"n_traces": 8, "key": key}).key == 31
        assert CampaignSpec(n_traces=8, key=31).to_dict()["key"] == "0x1f"

    def test_optional_tuple(self):
        assert ChaosConfig.from_dict({"only_shards": None}).only_shards \
            is None
        assert ChaosConfig.from_dict(
            {"only_shards": [3, 1]}).only_shards == (1, 3)
        for bad in ("13", [1, "3"], [1, True], {"1": 3}):
            with pytest.raises(SpecError):
                ChaosConfig.from_dict({"only_shards": bad})

    def test_unknown_curve_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown curve"):
            CampaignSpec(n_traces=8, curve="NOPE")

    def test_enrollment_spec_rejects_unknown_keys(self):
        payload = EnrollmentSpec(tags=3).to_dict()
        payload["extra"] = 1
        with pytest.raises(SpecError):
            EnrollmentSpec.from_dict(payload)
