"""Device admission at the 5G access point.

Implements PBKDF2 key stretching (parameter checks around the
OpenSSL-backed :func:`hashlib.pbkdf2_hmac`), simulated
challenge/response PUF enrollment and verification, the published Boolean
admission gate, and the virtual authority that holds every device's
credential state.

Two admission semantics coexist deliberately: :func:`boolean_gate_literal`
evaluates the published gate expression exactly as written (which rejects
the all-valid case), while :func:`authenticate` applies the stated intent,
a plain three-way conjunction of timestamp, PUF and key validity.  Both are
kept because the gate expression is part of the external contract and the
conjunction is what admission must actually do.

:func:`authenticate` takes the presented credential the way
:func:`puf_verify` takes a PUF response: either the password, which it
stretches under the record's inputs, or a responder that is handed those
inputs and returns a key already derived from them, for a caller that
derived the presented key elsewhere.  Either way the verdict comes from one
path: the same precedence, the same draws, and a constant-time comparison
with the stored key.  A derived key is a pure function of its
:class:`KeyDerivationParams`, so a caller may derive each distinct input
once and answer every check of that input with the same key.
"""

from __future__ import annotations

__all__ = [
    "AuthError", "AuthVerdict", "KeyDerivationParams", "PufChallengeResponse",
    "RegistrationRecord", "SimulatedPuf", "TamperError", "UnknownDeviceError", "VerdictReason",
    "VirtualAuthority", "authenticate", "boolean_gate_literal",
    "derive_key", "pbkdf2_bytes", "puf_enroll", "puf_verify", "register_device",
]

import hashlib
import hmac
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Union

import numpy as np

DEFAULT_ITERATION_COUNT = 1000
MIN_SALT_LENGTH = 8
DEFAULT_PRF_HASH = "sha256"
DEFAULT_FRESHNESS_WINDOW = 2.0  # seconds, mirrors the flow-timeout setting
CHALLENGES_PER_DEVICE = 8


class AuthError(Exception):
    """Base class for admission failures that are errors, not verdicts."""


class UnknownDeviceError(AuthError):
    """The device has no registration or enrolled challenge material."""


class TamperError(AuthError):
    """An enrollment conflicts with already-stored challenge material."""


@dataclass(frozen=True)
class KeyDerivationParams:
    """Inputs of the key-stretching function."""

    password: bytes
    salt: bytes
    iteration_count: int = DEFAULT_ITERATION_COUNT
    output_key_length: int = 32
    prf: str = DEFAULT_PRF_HASH

    def __post_init__(self):
        if self.iteration_count < 1:
            raise ValueError("iteration_count must be >= 1")
        if self.output_key_length < 1:
            raise ValueError("output_key_length must be >= 1")
        if len(self.salt) < MIN_SALT_LENGTH:
            raise ValueError(f"salt must be at least {MIN_SALT_LENGTH} octets")
        hashlib.new(self.prf)  # raises for unknown hash names


def pbkdf2_bytes(
    password: bytes, salt: bytes, iteration_count: int, output_key_length: int, prf: str
) -> bytes:
    """Low-level PBKDF2 key stretching (RFC 8018 section 5.2) on raw arguments.

    Checks the iteration count and the PRF block-count limit, then calls the
    OpenSSL-backed :func:`hashlib.pbkdf2_hmac`.  Deterministic.
    Interoperates with the published vector sets; prefer :func:`derive_key`
    (which enforces parameter hygiene) outside of cross-checks.
    """
    if iteration_count < 1:
        raise ValueError("iteration_count must be >= 1")
    max_len = (2**32 - 1) * hashlib.new(prf).digest_size
    if output_key_length > max_len:
        raise ValueError("output_key_length exceeds the PRF block-count limit")
    return hashlib.pbkdf2_hmac(prf, password, salt, iteration_count, output_key_length)


def derive_key(params: KeyDerivationParams) -> bytes:
    """Stretch a password into a key of the requested length."""
    return pbkdf2_bytes(
        params.password,
        params.salt,
        params.iteration_count,
        params.output_key_length,
        params.prf,
    )


def boolean_gate_literal(timestamp_valid: int, puf_valid: int, key_valid: int) -> int:
    """Evaluate the published admission gate exactly as written.

    gate = NOT((t AND p) AND (t OR p)) AND k.  Note that this expression
    yields 0 when all three inputs are 1; see :func:`authenticate` for the
    semantics actually used for admission.
    """
    for bit in (timestamp_valid, puf_valid, key_valid):
        if bit not in (0, 1):
            raise ValueError("gate inputs must be bits")
    t, p, k = timestamp_valid, puf_valid, key_valid
    return (1 - ((t & p) & (t | p))) & k


class VerdictReason(Enum):
    """Why a device was admitted or rejected."""

    OK = "ok"
    BAD_KEY = "bad_key"
    BAD_PUF = "bad_puf"
    STALE_TIMESTAMP = "stale_timestamp"
    UNKNOWN_DEVICE = "unknown_device"


@dataclass(frozen=True)
class AuthVerdict:
    """An admission decision and its reason."""

    accepted: bool
    reason: VerdictReason

    def __post_init__(self):
        if self.accepted != (self.reason is VerdictReason.OK):
            raise ValueError("accepted must hold exactly when reason is ok")


class SimulatedPuf:
    """Per-device keyed response function standing in for silicon.

    A hidden per-device seed is mixed with the challenge through HMAC, so
    responses are deterministic for the owner yet unpredictable without
    the seed (the unclonability property, within the model).
    """

    def __init__(self, secret_seed: bytes):
        self._seed = bytes(secret_seed)

    def respond(self, challenge: bytes) -> bytes:
        return hmac.new(self._seed, challenge, "sha256").digest()


@dataclass(frozen=True)
class PufChallengeResponse:
    """One challenge issued to a device's PUF and the response it gave."""

    device_id: str
    challenge: bytes
    response: bytes


@dataclass
class RegistrationRecord:
    """Credential material the authority holds for one device."""

    derived_key: bytes
    params: KeyDerivationParams


@dataclass
class VirtualAuthority:
    """The access point's authority: CRP store plus registrations, by device id."""

    crp_store: dict[str, dict[bytes, bytes]] = field(default_factory=dict)
    registered: dict[str, RegistrationRecord] = field(default_factory=dict)


def puf_enroll(va: VirtualAuthority, crp: PufChallengeResponse) -> None:
    """Store one challenge/response pair; idempotent for identical pairs.

    A different response for an already-stored challenge is a tamper
    signal and raises instead of overwriting.
    """
    pairs = va.crp_store.setdefault(crp.device_id, {})
    existing = pairs.get(crp.challenge)
    if existing is not None and existing != crp.response:
        raise TamperError(
            f"conflicting response enrolled for device {crp.device_id!r}"
        )
    pairs[crp.challenge] = crp.response


PufResponder = Callable[[bytes], bytes]
KeyResponder = Callable[[KeyDerivationParams], bytes]


def puf_verify(
    va: VirtualAuthority,
    device_id: str,
    response: Union[bytes, PufResponder],
    rng: np.random.Generator,
) -> bool:
    """Issue an enrolled challenge, drawn uniformly, and check the response
    against it.

    ``response`` is either raw octets (compared literally) or a responder
    callable that is handed the issued challenge, which is how a live
    device answers since it cannot know the challenge in advance.
    """
    pairs = va.crp_store.get(device_id)
    if not pairs:
        raise UnknownDeviceError(f"device {device_id!r} has no enrolled challenges")
    challenges = sorted(pairs)  # stable order regardless of insertion history
    challenge = challenges[int(rng.integers(len(challenges)))]
    supplied = response(challenge) if callable(response) else response
    return hmac.compare_digest(pairs[challenge], supplied)


def register_device(
    va: VirtualAuthority,
    device_id: str,
    password: bytes,
    puf: SimulatedPuf,
    rng: np.random.Generator,
) -> RegistrationRecord:
    """Enroll a device's CRPs, then derive and store its key.

    The salt and the ``CHALLENGES_PER_DEVICE`` challenges are 16 octets each,
    taken in that order from one draw; that gives the same octets, and leaves
    ``rng`` in the same state, as one 16-octet draw each.
    """
    octets = rng.integers(0, 256, size=16 * (1 + CHALLENGES_PER_DEVICE), dtype=np.uint8).tobytes()
    params = KeyDerivationParams(password=password, salt=octets[:16])
    for lo in range(16, len(octets), 16):
        challenge = octets[lo : lo + 16]
        puf_enroll(va, PufChallengeResponse(device_id, challenge, puf.respond(challenge)))
    record = RegistrationRecord(derived_key=derive_key(params), params=params)
    va.registered[device_id] = record
    return record


def authenticate(
    va: VirtualAuthority,
    device_id: str,
    password: Union[bytes, KeyResponder],
    timestamp: float,
    puf_response: Union[bytes, PufResponder],
    *,
    now: float,
    rng: np.random.Generator,
    freshness_window: float = DEFAULT_FRESHNESS_WINDOW,
) -> AuthVerdict:
    """Admit a device iff timestamp, PUF response and derived key all check.

    Failures are reported in fixed precedence: unknown device, stale
    timestamp, bad PUF, bad key.  ``password`` is either the presented
    password, stretched here under the record's inputs, or a responder that
    is handed those inputs and returns the presented key derived from them;
    it is called only when the key is checked.
    """
    record = va.registered.get(device_id)
    if record is None or device_id not in va.crp_store:
        return AuthVerdict(False, VerdictReason.UNKNOWN_DEVICE)

    if abs(now - timestamp) > freshness_window:
        return AuthVerdict(False, VerdictReason.STALE_TIMESTAMP)

    if not puf_verify(va, device_id, puf_response, rng):
        return AuthVerdict(False, VerdictReason.BAD_PUF)

    if callable(password):
        presented = password(record.params)
    else:
        presented = derive_key(replace(record.params, password=password))
    if not hmac.compare_digest(presented, record.derived_key):
        return AuthVerdict(False, VerdictReason.BAD_KEY)

    return AuthVerdict(True, VerdictReason.OK)
