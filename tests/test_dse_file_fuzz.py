"""Explored design-space files render or fail with one ``dse error:`` line.

An explored directory holds ``space.json`` (the spec, which ``dse
pareto`` re-prices from the measurement cache) and ``points.json`` (the
evaluated grid, which ``dse report`` renders).  A user can edit both.
This fuzz mutates one of them the way ``tests/test_manifest_fuzz.py``
mutates manifests — a key dropped, added or swapped, a list item
replaced, appended or edited, or the whole root replaced — and runs
``dse pareto`` and ``dse report``, text and ``--json``, through
``main``.  Each run must exit 0, or exit 1 with one ``dse error:`` line;
a ``TypeError``, ``KeyError`` or ``AttributeError`` escaping ``main``
fails the example.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_FAILED, EXIT_OK, main

from .test_manifest_fuzz import envelopes

FILES = {
    "space.json": ("countermeasures", "curve", "digit_sizes",
                   "frequencies_hz", "max_area_ge", "max_latency_s",
                   "min_security", "objectives", "schema_version", "seed",
                   "vdd_volts", "whitebox", "whitebox_traces"),
    "points.json": ("rows", "schema", "spec_digest"),
}


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-dse")
    assert main(["dse", "explore", "--dir", str(directory), "--curve",
                 "TOY-B17", "--digits", "1,4", "--vdd", "0.8,1.0",
                 "--freq", "847.5e3", "--countermeasures", "full",
                 "--workers", "1", "--quiet"]) == EXIT_OK
    return directory


def run_verb(argv: list) -> tuple:
    """``main(argv)`` with stdout and stderr captured: (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_file_renders_or_fails_with_one_line(explored,
                                                    tmp_path_factory, name,
                                                    data):
    original = json.loads((explored / name).read_text())
    mutant = data.draw(envelopes(original, FILES[name]))
    directory = tmp_path_factory.mktemp("mutant", numbered=True)
    shutil.copytree(explored, directory, dirs_exist_ok=True)
    (directory / name).write_text(json.dumps(mutant))
    try:
        for verb in ("pareto", "report"):
            for flags in ([], ["--json"]):
                code, err = run_verb(["dse", verb, "--dir", str(directory)]
                                     + flags)
                assert code == EXIT_OK or (
                    code == EXIT_FAILED and err.startswith("dse error:")
                    and err.count("\n") == 1), (verb, flags, code, err)
    finally:
        shutil.rmtree(directory)


@pytest.mark.parametrize("rows", [[5], ["row"], [[1, 2]], [None], 7,
                                  {"id": "x"}])
def test_rows_that_are_not_objects_fail_report(explored, tmp_path, rows):
    shutil.copytree(explored, tmp_path, dirs_exist_ok=True)
    points = json.loads((explored / "points.json").read_text())
    points["rows"] = rows
    (tmp_path / "points.json").write_text(json.dumps(points))
    code, err = run_verb(["dse", "report", "--dir", str(tmp_path)])
    assert code == EXIT_FAILED
    assert err.startswith("dse error:") and "points.json" in err


def test_unmutated_files_render(explored):
    for verb in ("pareto", "report"):
        assert run_verb(["dse", verb, "--dir", str(explored)]) == \
            (EXIT_OK, "")
