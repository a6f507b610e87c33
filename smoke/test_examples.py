"""Every example runs to completion on a copy of the tree (they write
``results/dse``)."""

import pytest


@pytest.mark.parametrize("name", ["quickstart", "pacemaker_auth",
                                  "design_space", "sca_lab"])
def test_example_runs(tree, name):
    tree(f"examples/{name}.py")
