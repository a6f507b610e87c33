"""Crypto backends in the design space: the hybrid engine beats pure
ECC on energy per message.  Tier-1 runs the known-answer vectors
(``tests/backends``)."""

import pytest

EXPLORE = ("dse explore --dir {} --workers 1 --digits 4 --vdd 1.0 --freq "
           "847.5e3 --countermeasures full --curve TOY-B17 --backends "
           "ecc,simon-aead,hybrid:16 --objectives energy_per_message,security")


@pytest.fixture(scope="module")
def explored(repro, tmp_path_factory):
    directory = tmp_path_factory.mktemp("dse-backends")
    return directory, repro(EXPLORE.format(directory))


def test_hybrid_dominates_pure_ecc_in_the_design_space(explored):
    assert "hybrid-16" in explored[1].stdout


def test_repricing_the_backends_is_a_pure_cache_hit(repro, explored):
    assert "0 simulated" in repro(EXPLORE.format(explored[0])).stdout


def test_extension_vs_window_bench_holds_its_acceptance_shape(bench):
    bench("e7_amortization")
