"""One differential k·P harness: every scalar multiplication vs the oracle.

``curve.multiply_naive`` (affine double-and-add) is the oracle.  On
TOY-B17 and K-163, hypothesis draws scalars (random ones plus the edge
cases 1, 2, n − 1, n and n + 1), base points and Z values (drawn from
an rng, 1, or explicit), and every k·P implementation in ``src/`` must
agree with the oracle:

* ``curve.multiply`` (NAF over cached doubling chains), also on B-163,
  for k ≤ 0 and k ≥ n, on the identity and the 2-torsion point, and
  through cache hits, evictions and chain extensions, with the cache
  never past ``CHAIN_CACHE_SIZE`` bases;
* ``montgomery_ladder`` at Z = 1 and at the drawn or explicit Z, and
  on the identity and 2-torsion bases, also on B-163, whose
  sqrt(b) ≠ 1 keeps the doubling's multiplication by sqrt(b) covered;
* ``montgomery_ladder_full``, whose last iteration's registers must
  also be the finished suspendable state's;
* the suspendable ladder, split at random step counts, with a
  ``LadderState.from_dict(state.to_dict())`` round trip at every split;
* ``faulty_montgomery_ladder`` with no fault, on x only (its y-bit is
  arbitrary by design);
* ``EccCoprocessor.point_multiply`` for both mux encodings, at every
  digit size on TOY-B17 and at d = 4 on K-163, for k in [1, n − 1] and
  base points of order n;
* ``BatchCoprocessor.run``'s x-only results, a batch of base points
  under one scalar, at every digit size on TOY-B17 and at d = 4 on
  K-163.

K-163 examples are few: one coprocessor run there takes about 0.4 s.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import (
    BalancedEncoding,
    CoprocessorConfig,
    EccCoprocessor,
    UnbalancedEncoding,
)
from repro.arch.batch import BatchCoprocessor
from repro.campaign import random_protocol_point
from repro.ec import NIST_B163, NIST_K163, AffinePoint, BinaryEllipticCurve
from repro.ec.curve import CHAIN_CACHE_SIZE
from repro.ec.curves import TOY_B17
from repro.ec.ladder import (
    LadderState,
    ladder_suspend_advance,
    ladder_suspend_init,
    ladder_suspend_result,
    montgomery_ladder,
    montgomery_ladder_full,
)
from repro.fault import faulty_montgomery_ladder

ENCODINGS = (BalancedEncoding, UnbalancedEncoding)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1).map(random.Random)
SPLITS = st.lists(st.integers(min_value=0, max_value=12), max_size=6)


def scalars(domain, below):
    """Scalars in ``[1, below)``: the edge cases that lie there, short
    scalars up to ``2^40``, and the whole interval."""
    n = domain.order
    edges = [k for k in (1, 2, n - 1, n, n + 1) if k < below]
    return st.one_of(st.sampled_from(edges),
                     st.integers(min_value=1,
                                 max_value=min(1 << 40, below - 1)),
                     st.integers(min_value=1, max_value=below - 1))


def subgroup_points(domain):
    """The generator and random points of order n."""
    return st.one_of(
        st.just(domain.generator),
        SEEDS.map(lambda rng: random_protocol_point(domain, rng)))


def bases(domain):
    """Order-n points and random points of any order, never the identity
    or the 2-torsion point (the ladders special-case those)."""
    return st.one_of(
        subgroup_points(domain),
        SEEDS.map(domain.curve.random_point).filter(lambda p: p.x != 0))


def z_modes(domain):
    """``None`` (draw Z from the rng), 1, or an explicit non-zero Z."""
    return st.one_of(st.none(), st.just(1),
                     st.integers(min_value=1,
                                 max_value=domain.field.order - 1))


def check_ladders(domain, k, point, z0, rng, splits):
    curve = domain.curve
    expected = curve.multiply_naive(k, point)
    assert montgomery_ladder(curve, k, point, randomize_z=False) == expected
    assert montgomery_ladder(curve, k, point, rng=rng,
                             initial_z=z0) == expected

    full = montgomery_ladder_full(curve, k, point, rng=rng, initial_z=z0)
    assert full.result == expected

    state = ladder_suspend_init(curve, k, point, full.initial_z)
    for steps in splits:
        state = ladder_suspend_advance(curve, state, steps)
        state = LadderState.from_dict(state.to_dict())
    state = ladder_suspend_advance(curve, state, state.bit_index + 1)
    assert ladder_suspend_result(curve, state) == expected
    if full.iterations:
        last = full.iterations[-1]
        assert (last.X1, last.Z1, last.X2, last.Z2) == \
            (state.x1, state.z1, state.x2, state.z2)

    assert faulty_montgomery_ladder(curve, k, point).x == expected.x


def seeded_resume_trials(test):
    """Add 25 fixed TOY-B17 trials as explicit examples: scalar, Z and
    four splits drawn from ``random.Random(42)``, so these exact split
    runs are checked on every run whatever hypothesis draws."""
    rng = random.Random(42)
    ring = TOY_B17.scalar_ring
    for _ in range(25):
        k = ring.random_scalar(rng)
        z0 = rng.randrange(1, TOY_B17.field.order)
        splits = [rng.randrange(1, 6) for _ in range(4)]
        test = example(k=k, point=TOY_B17.generator, z0=z0,
                       rng=random.Random(0), splits=splits)(test)
    return test


class TestLadders:
    @seeded_resume_trials
    @given(k=scalars(TOY_B17, 4 * TOY_B17.order), point=bases(TOY_B17),
           z0=z_modes(TOY_B17), rng=SEEDS, splits=SPLITS)
    @settings(max_examples=150, deadline=None)
    def test_toy_b17(self, k, point, z0, rng, splits):
        check_ladders(TOY_B17, k, point, z0, rng, splits)

    @given(k=scalars(NIST_K163, 4 * NIST_K163.order),
           point=bases(NIST_K163), z0=z_modes(NIST_K163), rng=SEEDS,
           splits=SPLITS)
    @settings(max_examples=8, deadline=None)
    def test_k163(self, k, point, z0, rng, splits):
        check_ladders(NIST_K163, k, point, z0, rng, splits)

    @given(k=scalars(NIST_B163, 4 * NIST_B163.order),
           point=bases(NIST_B163), z0=z_modes(NIST_B163), rng=SEEDS,
           splits=SPLITS)
    @settings(max_examples=6, deadline=None)
    def test_b163(self, k, point, z0, rng, splits):
        check_ladders(NIST_B163, k, point, z0, rng, splits)

    @pytest.mark.parametrize("domain", [TOY_B17, NIST_K163, NIST_B163],
                             ids=lambda d: d.name)
    @given(k=st.one_of(st.just(0), st.integers(min_value=0,
                                               max_value=1 << 170)))
    @settings(max_examples=20, deadline=None)
    def test_degenerate_inputs(self, domain, k):
        """The identity and 2-torsion bases, and k = 0."""
        curve = domain.curve
        cases = [(k, AffinePoint.infinity()), (k, curve.lift_x(0)),
                 (0, domain.generator)]
        for scalar, base in cases:
            expected = curve.multiply_naive(scalar, base)
            assert montgomery_ladder(curve, scalar, base,
                                     randomize_z=False) == expected
            assert montgomery_ladder_full(curve, scalar, base,
                                          randomize_z=False).result \
                == expected


MULTIPLY_DOMAINS = pytest.mark.parametrize(
    "domain", [TOY_B17, NIST_K163, NIST_B163], ids=lambda d: d.name)


def fresh_curve(domain):
    """The domain's curve with an empty chain cache."""
    curve = domain.curve
    return BinaryEllipticCurve(curve.field, curve.a, curve.b)


def signed_scalars(domain):
    """Any integer: zero, the signed edge cases around n, short and
    long scalars of either sign."""
    n = domain.order
    edges = [0, 1, -1, 2, n - 1, n, n + 1, 2 * n, -(n - 1), -n, -(n + 1)]
    return st.one_of(st.sampled_from(edges),
                     st.integers(min_value=-(1 << 40), max_value=1 << 40),
                     st.integers(min_value=-4 * n, max_value=4 * n))


def base_pool(domain, rng):
    """More distinct cacheable bases than the cache keeps: G, the
    2-torsion point, and random points of order n and of any order."""
    curve = domain.curve
    pool = [domain.generator, curve.lift_x(0)]
    while len(pool) < CHAIN_CACHE_SIZE + 2:
        point = (random_protocol_point(domain, rng) if len(pool) % 2
                 else curve.random_point(rng))
        if point not in pool:
            pool.append(point)
    return pool


def chain_length(curve, point):
    """Entries of ``point``'s cached doubling chain; 0 when uncached."""
    return len(curve._chains.get(point, ()))


class TestMultiply:
    """``curve.multiply`` against the oracle, and its chain cache."""

    @MULTIPLY_DOMAINS
    @given(data=st.data(), rng=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_calls_against_the_oracle(self, domain, data, rng):
        """A sequence of calls over more bases than the cache keeps:
        hits, evictions and extensions in whatever order hypothesis
        draws them."""
        curve = fresh_curve(domain)
        pool = base_pool(domain, rng)
        calls = data.draw(st.lists(
            st.tuples(signed_scalars(domain),
                      st.integers(min_value=0, max_value=len(pool) - 1)),
            min_size=1, max_size=14))
        for k, index in calls:
            base = pool[index]
            assert curve.multiply(k, base) == curve.multiply_naive(k, base)
            assert len(curve._chains) <= CHAIN_CACHE_SIZE
            assert set(curve._chains) <= set(pool)

    @MULTIPLY_DOMAINS
    @given(k=signed_scalars(NIST_K163))
    @settings(max_examples=10, deadline=None)
    def test_identity_and_two_torsion(self, domain, k):
        curve = fresh_curve(domain)
        two_torsion = curve.lift_x(0)
        for base in (AffinePoint.infinity(), two_torsion):
            assert curve.multiply(k, base) == curve.multiply_naive(k, base)
        assert set(curve._chains) <= {two_torsion}

    @MULTIPLY_DOMAINS
    def test_edge_scalars(self, domain):
        curve, g, n = fresh_curve(domain), domain.generator, domain.order
        for k in (0, 1, n - 1, n, n + 1, 3 * n + 5, -1, -(n - 1), -n):
            assert curve.multiply(k, g) == curve.multiply_naive(k, g)
        assert curve.multiply(n, g).is_infinity
        assert curve.multiply(n - 1, g) == curve.negate(g)

    @MULTIPLY_DOMAINS
    def test_same_base_twice_is_a_hit(self, domain):
        curve, g, n = fresh_curve(domain), domain.generator, domain.order
        assert curve.multiply(n - 1, g) == curve.multiply_naive(n - 1, g)
        chain = curve._chains[g]
        built = len(chain)
        assert curve.multiply(n // 3, g) == curve.multiply_naive(n // 3, g)
        assert curve._chains[g] is chain and len(chain) == built

    @MULTIPLY_DOMAINS
    def test_longer_scalar_extends_the_chain(self, domain):
        curve, g, n = fresh_curve(domain), domain.generator, domain.order
        short = (1 << 9) + 3
        assert curve.multiply(short, g) == curve.multiply_naive(short, g)
        assert chain_length(curve, g) == (3 * short).bit_length() - 1
        chain = curve._chains[g]
        assert curve.multiply(n - 2, g) == curve.multiply_naive(n - 2, g)
        assert curve._chains[g] is chain
        assert len(chain) == (3 * (n - 2)).bit_length() - 1

    @MULTIPLY_DOMAINS
    def test_least_recently_used_base_is_evicted(self, domain):
        curve = fresh_curve(domain)
        pool = base_pool(domain, random.Random(7))
        first, second = pool[0], pool[1]
        k = domain.order - 3
        for base in pool[:CHAIN_CACHE_SIZE]:
            curve.multiply(k, base)
        assert len(curve._chains) == CHAIN_CACHE_SIZE
        curve.multiply(k, first)              # now the most recently used
        curve.multiply(k, pool[CHAIN_CACHE_SIZE])
        assert len(curve._chains) == CHAIN_CACHE_SIZE
        assert first in curve._chains and second not in curve._chains
        assert curve.multiply(k, second) == curve.multiply_naive(k, second)
        assert second in curve._chains
        assert len(curve._chains) == CHAIN_CACHE_SIZE


@functools.lru_cache(maxsize=None)
def coprocessor(domain, digit_size, encoding):
    return EccCoprocessor(CoprocessorConfig(
        domain=domain, digit_size=digit_size, mux_encoding=encoding()))


def check_coprocessor(domain, digit_size, encoding, k, point, z0, rng):
    trace = coprocessor(domain, digit_size, encoding).point_multiply(
        k, point, rng=rng, initial_z=z0)
    assert trace.result == domain.curve.multiply_naive(k, point)


class TestCoprocessor:
    @pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("digit_size", range(1, TOY_B17.field.m + 1))
    @given(k=scalars(TOY_B17, TOY_B17.order),
           point=subgroup_points(TOY_B17), z0=z_modes(TOY_B17), rng=SEEDS)
    @settings(max_examples=4, deadline=None)
    def test_toy_b17(self, digit_size, encoding, k, point, z0, rng):
        check_coprocessor(TOY_B17, digit_size, encoding, k, point, z0, rng)

    @pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda e: e.__name__)
    @given(k=scalars(NIST_K163, NIST_K163.order),
           point=subgroup_points(NIST_K163), z0=z_modes(NIST_K163),
           rng=SEEDS)
    @settings(max_examples=3, deadline=None)
    def test_k163(self, encoding, k, point, z0, rng):
        check_coprocessor(NIST_K163, 4, encoding, k, point, z0, rng)


@functools.lru_cache(maxsize=None)
def batch_coprocessor(domain, digit_size):
    return BatchCoprocessor(CoprocessorConfig(domain=domain,
                                              digit_size=digit_size))


def check_batch(domain, digit_size, k, rng, n_points):
    batch = batch_coprocessor(domain, digit_size)
    points = [random_protocol_point(domain, rng) for _ in range(n_points)]
    z = [rng.randrange(1, domain.field.order) for _ in points]
    trace = batch.run(batch.recode_scalar(k), points, z)
    assert trace.result_x_only == [domain.curve.multiply_naive(k, p).x
                                   for p in points]


class TestBatchCoprocessor:
    @pytest.mark.parametrize("digit_size", range(1, TOY_B17.field.m + 1))
    @given(k=scalars(TOY_B17, TOY_B17.order), rng=SEEDS)
    @settings(max_examples=3, deadline=None)
    def test_toy_b17(self, digit_size, k, rng):
        check_batch(TOY_B17, digit_size, k, rng, 4)

    @given(k=scalars(NIST_K163, NIST_K163.order), rng=SEEDS)
    @settings(max_examples=2, deadline=None)
    def test_k163(self, k, rng):
        check_batch(NIST_K163, 4, k, rng, 3)
