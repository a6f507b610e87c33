"""Golden digests for the three users of the three-round session engine.

The resilient protocol session (:func:`run_resilient_session`), the
identification server's per-session exchange and the adversary lab's
attack sessions all run one epoch/retransmission state machine.  This
table pins what each of them observably produces, recorded before the
three shared one engine:

* ``repr(SessionResult)`` for every protocol at several loss rates,
  with and without bit errors, duplicates and reordering, plus a
  mutual-auth session against an impostor server.  The repr carries
  the transcript digest and the event log.
* every :class:`AttackSessionResult` field except ``events`` for each
  session kind under each defense set at several loss rates, with
  staggered start times and one energy budget shared per cohort, plus
  that budget's end state.
* ``repr`` of every :class:`SessionOutcome` (including the rejection
  counters ``summary.json`` drops) from servers that exercise plain,
  lossless, deadline, adversarial, budget and overload paths, plus
  each server's shed and admission counters.
"""

import dataclasses
import hashlib

import pytest

from repro.adversary import (DEFENSE_SETS, SESSION_KINDS, defense_config,
                             run_attack_session)
from repro.channel import LossProfile
from repro.ec.curves import TOY_B17
from repro.protocols.session import (MutualAuthAdapter, PROTOCOL_NAMES,
                                     RetransmissionPolicy, make_adapter,
                                     run_resilient_session)
from repro.server import (EnrollmentSpec, EnrollmentStore,
                          IdentificationServer, ServerConfig, ServerError,
                          SimLoop, enroll_fleet)

LOSSES = (0.0, 0.1, 0.3, 0.6)
ATTACK_PROFILES = tuple(LossProfile(frame_loss=loss)
                        for loss in (0.0, 0.1, 0.3)) + (
    LossProfile(frame_loss=0.1, duplicate_rate=0.2, reorder_rate=0.2),)

GOLDEN = {
    "protocol":
        "94b495905a5bb67e719d9df939d76c1d4168680ff473471decdd89bf8f8c8fd4",
    "attack":
        "b8a0e29e6a9607c91bb5038579721275c5f1652437212121532c84cc6fd0c691",
    "server":
        "8c3e61aff9efe7e703218f8d5810d5f1f2ef930636dd1289f4cc9d2b1bb1202d",
}


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _rough(loss: float) -> LossProfile:
    return LossProfile(frame_loss=loss, bit_error_rate=2e-3,
                       duplicate_rate=0.1, reorder_rate=0.1)


def protocol_lines():
    for protocol in PROTOCOL_NAMES:
        for loss in LOSSES:
            for rough, profile in ((False, LossProfile(frame_loss=loss)),
                                   (True, _rough(loss))):
                index = int(loss * 10) + 20 * rough
                adapter = make_adapter(protocol, TOY_B17, seed=13,
                                       session_index=index)
                yield repr(run_resilient_session(
                    adapter, profile, seed=13, session_index=index))
    honest = make_adapter("mutual-auth", seed=13, session_index=4)
    impostor = MutualAuthAdapter(honest.device, honest.server,
                                 server_is_impostor=True)
    yield repr(run_resilient_session(impostor, LossProfile(frame_loss=0.1),
                                     seed=13, session_index=4))


def attack_lines():
    for name in DEFENSE_SETS:
        defense = defense_config(name)
        for p, profile in enumerate(ATTACK_PROFILES):
            budget = defense.budget()
            for i, kind in enumerate(SESSION_KINDS):
                result = run_attack_session(
                    kind, defense=defense, profile=profile, seed=29,
                    session_index=i + 3 * p, start_at=i * 0.37,
                    budget=budget)
                yield repr([(f.name, getattr(result, f.name))
                            for f in dataclasses.fields(result)
                            if f.name != "events"])
            if budget is not None:
                yield repr((budget.window_index, budget.window_spent_uj,
                            budget.total_spent_uj, budget.peak_window_uj,
                            budget.refusals))


#: name -> (config, policy, profile, sessions, arrival gap s, sourced,
#: every k-th session adversarial)
SERVER_CASES = {
    "plain": (ServerConfig(), RetransmissionPolicy(max_epochs=3),
              LossProfile(frame_loss=0.3), 24, 0.01, False, 0),
    "lossless": (ServerConfig(search_mode="uncached"), None,
                 LossProfile(), 12, 0.0, False, 0),
    "deadline": (ServerConfig(session_deadline_s=0.3), None,
                 LossProfile(frame_loss=0.45, duplicate_rate=0.2,
                             reorder_rate=0.2), 16, 0.02, False, 0),
    "adversarial": (ServerConfig(source_session_limit=2,
                                 replay_quarantine=True,
                                 tag_budget_uj=80.0,
                                 session_deadline_s=1.0),
                    None, LossProfile(frame_loss=0.2), 30, 0.015, True, 3),
    "budget": (ServerConfig(tag_budget_uj=40.0), None,
               LossProfile(frame_loss=0.4), 20, 0.01, False, 0),
    "overload": (ServerConfig(capacity=3, admission_queue=4), None,
                 LossProfile(frame_loss=0.1), 20, 0.004, False, 0),
}


def server_lines(store):
    for name, (config, policy, profile, sessions, gap, sourced,
               adv_every) in SERVER_CASES.items():
        loop = SimLoop()
        server = IdentificationServer(loop, store, config, seed=17,
                                      policy=policy, profile=profile)

        async def drive():
            server.start()
            futures, lines = [], [name]
            for index in range(sessions):
                if index and gap:
                    await loop.sleep(gap)
                adversarial = bool(adv_every) and index % adv_every == 1
                source = None
                if sourced:
                    source = f"adv-{index % 2}" if adversarial \
                        else f"tag-{index % 5}"
                try:
                    futures.append(server.submit(
                        index, source=source, adversarial=adversarial))
                except ServerError as exc:
                    lines.append(f"shed {index}: "
                                 f"{type(exc).__name__}: {exc}")
            for future in futures:
                lines.append(repr(await future))
            await server.close()
            return lines

        yield from loop.run_until_complete(drive())
        yield repr((server.admitted, server.shed, server.throttled,
                    server.peak_in_flight,
                    sorted(server.quarantined_sources), loop.now))


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("session-golden-fleet")
    report = enroll_fleet(directory,
                          EnrollmentSpec(tags=200, shard_size=64, seed=5,
                                         curve="TOY-B17"),
                          workers=1)
    assert report.complete
    return EnrollmentStore(str(directory))


def test_protocol_sessions():
    assert _sha(protocol_lines()) == GOLDEN["protocol"]


def test_attack_sessions():
    assert _sha(attack_lines()) == GOLDEN["attack"]


def test_server_sessions(golden_store):
    assert _sha(server_lines(golden_store)) == GOLDEN["server"]
