"""The protocol level of the security pyramid.

Peeters–Hermans private identification (Figure 2), the traceable
Schnorr baseline, AES-based symmetric mutual authentication with
server-auth-first early abort, the location-privacy linkage game and
per-party operation/communication accounting.
"""

from .mutual_auth import (
    AuthenticationError,
    MutualAuthResult,
    SymmetricDevice,
    SymmetricServer,
    run_mutual_authentication,
)
from .database import InMemoryTagDatabase, TagDatabase
from .ops import Message, OperationCount, Transcript
from .peeters_hermans import (
    IdentificationResult,
    NonceConsumedError,
    NoncePendingError,
    PeetersHermansReader,
    PeetersHermansTag,
    run_identification,
)
from .amortized import (
    AmortizedPoint,
    AmortizedRecord,
    AmortizedReport,
    AmortizedSpec,
    derive_session_key,
    run_amortized_session,
    run_amortized_soak,
)
from .fleet import FleetReport, FleetSpec, SweepPoint, run_fleet
from .session import (
    PayloadRejectedError,
    PeerRejectedError,
    ReplayedFrameError,
    RetransmissionPolicy,
    SessionError,
    SessionResult,
    StaleFrameError,
    make_adapter,
    run_resilient_session,
)
from .privacy import (
    LinkageGameResult,
    peeters_hermans_linkage_game,
    schnorr_linkage_game,
)
from .schnorr import (
    SchnorrSession,
    SchnorrTag,
    SchnorrVerifier,
    extract_public_key,
    run_schnorr_identification,
)

__all__ = [
    "OperationCount",
    "Transcript",
    "Message",
    "TagDatabase",
    "InMemoryTagDatabase",
    "PeetersHermansTag",
    "PeetersHermansReader",
    "IdentificationResult",
    "run_identification",
    "SchnorrTag",
    "SchnorrVerifier",
    "SchnorrSession",
    "run_schnorr_identification",
    "extract_public_key",
    "SymmetricDevice",
    "SymmetricServer",
    "MutualAuthResult",
    "AuthenticationError",
    "run_mutual_authentication",
    "LinkageGameResult",
    "schnorr_linkage_game",
    "peeters_hermans_linkage_game",
    "NonceConsumedError",
    "NoncePendingError",
    "SessionError",
    "StaleFrameError",
    "ReplayedFrameError",
    "PayloadRejectedError",
    "PeerRejectedError",
    "RetransmissionPolicy",
    "SessionResult",
    "run_resilient_session",
    "make_adapter",
    "FleetSpec",
    "SweepPoint",
    "FleetReport",
    "run_fleet",
    "AmortizedSpec",
    "AmortizedRecord",
    "AmortizedPoint",
    "AmortizedReport",
    "run_amortized_session",
    "run_amortized_soak",
    "derive_session_key",
]
