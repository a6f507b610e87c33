"""Manifest envelopes load or fail with their store's typed error.

``tests/test_spec_fuzz.py`` mutates the spec payloads; this fuzz
mutates the envelope around them.  A campaign's ``manifest.json``
wraps its spec in ``iteration_slices``, ``key_bits`` and a ``shards``
list of records; a fleet's ``enrollment.json`` wraps its spec in
``spec_digest`` and a ``shards`` list of entries.  Each example
drops, adds or swaps an envelope key, replaces, appends or edits a
list item, or replaces the whole root, then opens the store and reads
it the way the CLI does (``campaign status``; every shard of the
fleet).  The store must open, or raise
:class:`~repro.campaign.CampaignError` /
:class:`~repro.server.EnrollmentError` or a ``ValueError``
(:class:`~repro.jsonspec.SpecError` included) — never a
``TypeError``, ``KeyError`` or ``AttributeError``.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignError, TraceStore
from repro.cli import cmd_campaign_status, main
from repro.server import EnrollmentSpec, EnrollmentStore, enroll_fleet
from repro.server.errors import EnrollmentError

from .test_spec_fuzz import JSON

CAMPAIGN_ENVELOPE = ("spec", "iteration_slices", "key_bits", "shards",
                     "schema_version")
ENROLLMENT_ENVELOPE = ("spec", "spec_digest", "shards", "schema_version")


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-campaign")
    assert main(["campaign", "acquire", "--curve", "TOY-B17",
                 "--traces", "8", "--shard-size", "4", "--workers", "1",
                 "--scenario", "unprotected", "--seed", "7", "--bits",
                 "2", "--quiet", "--dir", str(directory)]) == 0
    return directory


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-fleet")
    report = enroll_fleet(str(directory),
                          EnrollmentSpec(tags=20, shard_size=8, seed=5,
                                         curve="TOY-B17"),
                          workers=1)
    assert report.complete
    return directory


def _edit_item(draw, item):
    """An item of an envelope list, edited in place of the original."""
    if isinstance(item, dict) and item and draw(st.booleans()):
        item = dict(item)
        key = draw(st.sampled_from(sorted(item)))
        if draw(st.booleans()):
            del item[key]
        else:
            item[key] = draw(JSON | st.integers(-2, 40))
        return item
    return draw(JSON)


@st.composite
def envelopes(draw, original: dict, keys: tuple):
    """A mutated copy of the manifest ``original``."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON.filter(lambda value: not isinstance(value, dict)))
    manifest = json.loads(json.dumps(original))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(("drop", "add", "swap", "item",
                                     "append")))
        value = manifest.get(key)
        if kind == "drop":
            manifest.pop(key, None)
        elif kind == "add":
            manifest[draw(st.text(min_size=1, max_size=6))] = draw(JSON)
        elif kind == "swap" or not isinstance(value, list):
            manifest[key] = draw(JSON)
        elif kind == "append":
            value.append(draw(JSON))
        elif value:
            index = draw(st.integers(0, len(value) - 1))
            value[index] = _edit_item(draw, value[index])
    return manifest


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_campaign_manifest_loads_or_raises_typed(campaign_dir,
                                                         tmp_path_factory,
                                                         data):
    path = campaign_dir / "manifest.json"
    original = json.loads(path.read_text())
    manifest = data.draw(envelopes(original, CAMPAIGN_ENVELOPE))
    directory = tmp_path_factory.mktemp("mutant", numbered=True)
    shutil.copytree(campaign_dir, directory, dirs_exist_ok=True)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    try:
        TraceStore(str(directory)).load()
        cmd_campaign_status(str(directory))
    except (CampaignError, ValueError):
        pass
    finally:
        shutil.rmtree(directory)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_enrollment_manifest_loads_or_raises_typed(fleet_dir,
                                                           data):
    path = fleet_dir / "enrollment.json"
    original = json.loads(path.read_text())
    manifest = data.draw(envelopes(original, ENROLLMENT_ENVELOPE))
    path.write_text(json.dumps(manifest))
    try:
        store = EnrollmentStore(str(fleet_dir))
        for _ in store.iter_shards():
            pass
    except (EnrollmentError, ValueError):
        pass
    finally:
        path.write_text(json.dumps(original))


def test_unmutated_manifests_load(campaign_dir, fleet_dir):
    assert TraceStore(str(campaign_dir)).load().n_traces_on_disk == 8
    assert len(EnrollmentStore(str(fleet_dir))) == 20
