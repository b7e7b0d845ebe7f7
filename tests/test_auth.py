import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ts3ra import auth as auth_mod
from ts3ra.auth import (
    CHALLENGES_PER_DEVICE,
    AuthVerdict,
    KeyDerivationParams,
    PufChallengeResponse,
    RegistrationRecord,
    SimulatedPuf,
    TamperError,
    UnknownDeviceError,
    VerdictReason,
    VirtualAuthority,
    VirtualAuthorityPool,
    authenticate,
    boolean_gate_literal,
    derive_key,
    pbkdf2_bytes,
    puf_enroll,
    puf_verify,
    register_device,
)

# Published key-stretching vectors (HMAC-SHA-1, salts shorter than the
# production minimum are allowed only through the test escape hatch).
RFC6070_VECTORS = [
    (b"password", b"salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"),
    (b"password", b"salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"),
    (b"password", b"salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"),
    (
        b"passwordPASSWORDpassword",
        b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
        4096,
        25,
        "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038",
    ),
    (b"pass\0word", b"sa\0lt", 4096, 16, "56fa6aa75548099dcc37d7f03425e0c3"),
]


class TestDeriveKey:
    @pytest.mark.parametrize("pwd,salt,iters,dklen,expected", RFC6070_VECTORS)
    def test_published_vectors(self, pwd, salt, iters, dklen, expected):
        key = pbkdf2_bytes(pwd, salt, iters, dklen, "sha1")
        assert key.hex() == expected

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pwd = bytes(rng.integers(0, 256, size=int(rng.integers(1, 40)), dtype=np.uint8))
            salt = bytes(rng.integers(0, 256, size=int(rng.integers(8, 32)), dtype=np.uint8))
            iters = int(rng.integers(1, 50))
            dklen = int(rng.integers(1, 80))
            prf = ["sha1", "sha256", "sha512"][int(rng.integers(3))]
            mine = derive_key(
                KeyDerivationParams(pwd, salt, iters, dklen, prf)
            )
            reference = hashlib.pbkdf2_hmac(prf, pwd, salt, iters, dklen)
            assert mine == reference

    def test_deterministic(self):
        params = KeyDerivationParams(b"pw", b"salty-salt", 10, 32)
        assert derive_key(params) == derive_key(params)

    def test_default_iteration_count(self):
        assert KeyDerivationParams(b"pw", b"salty-salt").iteration_count == 1000

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="iteration_count"):
            pbkdf2_bytes(b"p", b"s" * 8, 0, 20, "sha1")

    def test_output_length_limit(self):
        with pytest.raises(ValueError):
            pbkdf2_bytes(b"p", b"s" * 8, 1, (2**32) * 20, "sha1")

    def test_short_salt_rejected(self):
        with pytest.raises(ValueError):
            KeyDerivationParams(b"pw", b"short")

    def test_input_sensitivity_no_collisions(self):
        rng = np.random.default_rng(5)
        seen = {}
        for i in range(2000):
            pwd = bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
            salt = bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
            key = derive_key(KeyDerivationParams(pwd, salt, 1, 16))
            assert key not in seen, "collision across randomized inputs"
            seen[key] = (pwd, salt)


class TestBooleanGate:
    def test_exhaustive_truth_table(self):
        for t in (0, 1):
            for p in (0, 1):
                for k in (0, 1):
                    expected = (0 if ((t and p) and (t or p)) else 1) and k
                    assert boolean_gate_literal(t, p, k) == int(expected)

    def test_all_valid_yields_zero(self):
        # the published expression rejects the all-valid case
        assert boolean_gate_literal(1, 1, 1) == 0

    def test_key_zero_dominates(self):
        for t in (0, 1):
            for p in (0, 1):
                assert boolean_gate_literal(t, p, 0) == 0

    def test_partial_validity_passes_gate(self):
        assert boolean_gate_literal(0, 1, 1) == 1

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            boolean_gate_literal(2, 0, 1)


@pytest.fixture
def enrolled():
    rng = np.random.default_rng(3)
    va = VirtualAuthority()
    puf = SimulatedPuf(b"\x01" * 32)
    record = register_device(va, "dev-1", b"hunter2", puf, rng)
    return va, puf, record, rng


class TestPuf:
    def test_enroll_then_lookup(self):
        va = VirtualAuthority()
        puf_enroll(va, PufChallengeResponse("d", b"c1", b"r1"))
        assert va.crp_store["d"][b"c1"] == b"r1"

    def test_enroll_idempotent(self):
        va = VirtualAuthority()
        crp = PufChallengeResponse("d", b"c1", b"r1")
        puf_enroll(va, crp)
        puf_enroll(va, crp)
        assert len(va.crp_store["d"]) == 1

    def test_conflicting_response_is_tamper(self):
        va = VirtualAuthority()
        puf_enroll(va, PufChallengeResponse("d", b"c1", b"r1"))
        with pytest.raises(TamperError):
            puf_enroll(va, PufChallengeResponse("d", b"c1", b"r2"))

    def test_store_monotone_under_enrolls(self):
        va = VirtualAuthority()
        size = 0
        for i in range(20):
            puf_enroll(va, PufChallengeResponse("d", f"c{i}".encode(), b"r"))
            assert len(va.crp_store["d"]) >= size
            size = len(va.crp_store["d"])

    def test_verify_correct_response(self, enrolled):
        va, puf, _, rng = enrolled
        assert puf_verify(va, "dev-1", puf.respond, rng) is True

    def test_verify_wrong_response(self, enrolled):
        va, _, _, rng = enrolled
        assert puf_verify(va, "dev-1", b"garbage", rng) is False

    def test_verify_unknown_device(self, enrolled):
        va, _, _, rng = enrolled
        with pytest.raises(UnknownDeviceError):
            puf_verify(va, "ghost", b"x", rng)


def per_challenge_registration(va, device_id, password, puf, rng):
    """Reference: one 16-octet draw for the salt, then one per challenge,
    with the record stored before the challenges are enrolled."""
    salt = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
    params = KeyDerivationParams(password=password, salt=salt)
    va.registered[device_id] = RegistrationRecord(derive_key(params), params)
    for _ in range(CHALLENGES_PER_DEVICE):
        challenge = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        puf_enroll(va, PufChallengeResponse(device_id, challenge, puf.respond(challenge)))


class TestRegisterDevice:
    @pytest.mark.parametrize("n_challenges", [0, 1, 8, 13])
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    def test_one_draw_equals_sixteen_octet_draws(self, seed, n_challenges):
        # The octets come four to a 32-bit word, so a 16-octet draw leaves
        # none over: one draw of all of them is the same stream.
        one = np.random.Generator(np.random.PCG64(seed))
        many = np.random.Generator(np.random.PCG64(seed))
        octets = one.integers(0, 256, size=16 * (1 + n_challenges), dtype=np.uint8)
        pieces = [many.integers(0, 256, size=16, dtype=np.uint8) for _ in range(1 + n_challenges)]
        assert octets.tobytes() == b"".join(p.tobytes() for p in pieces)
        assert one.bit_generator.state == many.bit_generator.state
        assert one.random() == many.random()

    def test_equals_per_challenge_draws(self):
        puf = SimulatedPuf(b"\x02" * 32)
        ref_va, ref_rng = VirtualAuthority(), np.random.default_rng(9)
        per_challenge_registration(ref_va, "d", b"pw", puf, ref_rng)
        va, rng = VirtualAuthority(), np.random.default_rng(9)
        record = register_device(va, "d", b"pw", puf, rng)
        assert record == ref_va.registered["d"]
        assert va == ref_va
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_enroll_stores_no_record_until_the_second_step(self, monkeypatch):
        # the CRPs are enrolled first; the record is stored only once its
        # key is derived, so a failed derivation leaves no record
        def fail(params):
            raise RuntimeError("derivation failed")

        va, puf = VirtualAuthority(), SimulatedPuf(b"\x03" * 32)
        monkeypatch.setattr(auth_mod, "derive_key", fail)
        with pytest.raises(RuntimeError, match="derivation failed"):
            register_device(va, "d", b"pw", puf, np.random.default_rng(4))
        assert len(va.crp_store["d"]) == 8 and not va.registered
        monkeypatch.undo()
        record = register_device(va, "e", b"pw", puf, np.random.default_rng(4))
        assert va.registered == {"e": record} and len(va.crp_store["e"]) == 8
        assert record.derived_key == derive_key(KeyDerivationParams(b"pw", record.params.salt))


class TestAuthenticate:
    def test_all_valid_accepted(self, enrolled):
        va, puf, _, rng = enrolled
        verdict = authenticate(
            va, "dev-1", b"hunter2", timestamp=100.0, puf_response=puf.respond,
            now=100.5, rng=rng,
        )
        assert verdict == AuthVerdict(True, VerdictReason.OK)

    def test_stale_timestamp_rejected(self, enrolled):
        va, puf, _, rng = enrolled
        verdict = authenticate(
            va, "dev-1", b"hunter2", timestamp=90.0, puf_response=puf.respond,
            now=100.0, rng=rng,
        )
        assert verdict == AuthVerdict(False, VerdictReason.STALE_TIMESTAMP)

    def test_wrong_puf_rejected(self, enrolled):
        va, _, _, rng = enrolled
        verdict = authenticate(
            va, "dev-1", b"hunter2", timestamp=100.0, puf_response=b"wrong",
            now=100.0, rng=rng,
        )
        assert verdict == AuthVerdict(False, VerdictReason.BAD_PUF)

    def test_wrong_password_rejected(self, enrolled):
        va, puf, _, rng = enrolled
        verdict = authenticate(
            va, "dev-1", b"wrong-pw", timestamp=100.0, puf_response=puf.respond,
            now=100.0, rng=rng,
        )
        assert verdict == AuthVerdict(False, VerdictReason.BAD_KEY)

    def test_unknown_device(self, enrolled):
        va, puf, _, rng = enrolled
        verdict = authenticate(
            va, "ghost", b"pw", timestamp=0.0, puf_response=puf.respond,
            now=0.0, rng=rng,
        )
        assert verdict == AuthVerdict(False, VerdictReason.UNKNOWN_DEVICE)

    def test_failure_precedence_stale_before_bad_key(self, enrolled):
        va, puf, _, rng = enrolled
        verdict = authenticate(
            va, "dev-1", b"wrong-pw", timestamp=0.0, puf_response=puf.respond,
            now=100.0, rng=rng,
        )
        assert verdict.reason is VerdictReason.STALE_TIMESTAMP

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            AuthVerdict(True, VerdictReason.BAD_KEY)

    def test_no_authority_is_an_unknown_device(self, enrolled):
        _, puf, _, rng = enrolled
        state = rng.bit_generator.state
        verdict = authenticate(
            None, "dev-1", b"hunter2", timestamp=0.0, puf_response=puf.respond, now=0.0, rng=rng
        )
        assert verdict == AuthVerdict(False, VerdictReason.UNKNOWN_DEVICE)
        assert rng.bit_generator.state == state


class TestPresentedKey:
    """A key derived elsewhere, handed over by a responder, gets the verdict
    and the draws that its password gets."""

    def responder(self, password, handed):
        def respond(params):
            handed.append(params)
            return derive_key(replace(params, password=password))

        return respond

    @pytest.mark.parametrize(
        "password,timestamp,good_puf",
        [
            (b"hunter2", 100.0, True),
            (b"wrong-pw", 100.0, True),
            (b"hunter2", 90.0, True),
            (b"hunter2", 100.0, False),
        ],
    )
    def test_same_verdict_and_draws_as_the_password(self, password, timestamp, good_puf):
        def attempt(presented):
            rng = np.random.default_rng(5)
            va, puf = VirtualAuthority(), SimulatedPuf(b"\x01" * 32)
            register_device(va, "dev-1", b"hunter2", puf, rng)
            verdict = authenticate(
                va, "dev-1", presented, timestamp=timestamp,
                puf_response=puf.respond if good_puf else b"wrong", now=100.0, rng=rng,
            )
            return verdict, rng.bit_generator.state, va.registered["dev-1"]

        handed = []
        by_password = attempt(password)
        by_responder = attempt(self.responder(password, handed))
        assert by_responder == by_password
        # handed the record's inputs, and only once the key is checked
        checked = timestamp == 100.0 and good_puf
        assert handed == ([by_responder[2].params] if checked else [])

    def test_unknown_device_calls_no_responder(self, enrolled):
        va, puf, _, rng = enrolled
        handed = []
        verdict = authenticate(
            va, "ghost", self.responder(b"pw", handed), timestamp=0.0,
            puf_response=puf.respond, now=0.0, rng=rng,
        )
        assert verdict.reason is VerdictReason.UNKNOWN_DEVICE and not handed


class TestAuthorityPool:
    def test_one_authority_per_125_devices(self):
        pool = VirtualAuthorityPool()
        for i in range(260):
            pool.authority_for(f"d{i}")
        assert len(pool.authorities) == 3

    def test_assignment_is_stable(self):
        pool = VirtualAuthorityPool()
        first = pool.authority_for("d0")
        for i in range(200):
            pool.authority_for(f"d{i}")
        assert pool.authority_for("d0") is first

    def test_lookup_assigns_nothing(self):
        pool = VirtualAuthorityPool()
        first = pool.authority_for("d0")
        assert pool.holder_of("d0") is first
        assert pool.holder_of("ghost") is None
        assert pool.authorities == [first]
        assert pool.authority_for("d1") is first
