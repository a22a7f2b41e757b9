"""Tests for security associations, replay windows, and the SADB."""

import hashlib
import hmac

import pytest

from repro.security.sa import (
    ICV_BYTES,
    ReplayWindow,
    SADatabase,
    SecurityAssociation,
    SecurityError,
)


def _sa(**kwargs):
    defaults = dict(spi=0x100, auth_key=b"k" * 16)
    defaults.update(kwargs)
    return SecurityAssociation(**defaults)


class TestReplayWindow:
    def test_fresh_sequences_accepted(self):
        window = ReplayWindow()
        assert window.check_and_update(1)
        assert window.check_and_update(2)
        assert window.check_and_update(5)

    def test_duplicate_rejected(self):
        window = ReplayWindow()
        assert window.check_and_update(3)
        assert not window.check_and_update(3)

    def test_old_in_window_accepted_once(self):
        window = ReplayWindow()
        window.check_and_update(10)
        assert window.check_and_update(7)
        assert not window.check_and_update(7)

    def test_too_old_rejected(self):
        window = ReplayWindow()
        window.check_and_update(100)
        assert not window.check_and_update(100 - ReplayWindow.SIZE)

    def test_zero_rejected(self):
        assert not ReplayWindow().check_and_update(0)


class TestSecurityAssociation:
    def test_icv_roundtrip(self):
        sa = _sa()
        data = b"payload bytes"
        icv = sa.icv(data)
        assert len(icv) == ICV_BYTES
        assert sa.verify(data, icv)
        assert not sa.verify(data + b"x", icv)

    @pytest.mark.parametrize("algo", ["hmac-md5", "hmac-sha1", "hmac-sha256"])
    def test_all_algorithms(self, algo):
        sa = _sa(auth_algorithm=algo)
        assert sa.verify(b"data", sa.icv(b"data"))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SecurityError):
            _sa(auth_algorithm="rot13")

    def test_sequence_increments(self):
        sa = _sa()
        assert sa.next_sequence() == 1
        assert sa.next_sequence() == 2

    def test_encrypt_decrypt_roundtrip(self):
        sa = _sa(encryption_key=b"e" * 16)
        plaintext = b"the quick brown fox" * 10
        ciphertext = sa.encrypt(7, plaintext)
        assert ciphertext != plaintext
        assert sa.decrypt(7, ciphertext) == plaintext

    def test_keystream_differs_per_sequence(self):
        sa = _sa(encryption_key=b"e" * 16)
        assert sa.encrypt(1, b"same") != sa.encrypt(2, b"same")

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1500, 4096])
    def test_keystream_is_one_shake_256_call(self, length):
        """One SHAKE-256 digest of ``key ‖ seq8``, read out to the
        plaintext length."""
        key, sequence = b"e" * 16, 0x0102030405
        stream = _sa(encryption_key=key).keystream(sequence, length)
        assert stream == hashlib.shake_256(
            key + sequence.to_bytes(8, "big")
        ).digest(length)
        assert type(stream) is bytes

    def test_keystream_known_answer(self):
        """A literal vector: a change to the construction is a visible
        diff here, not only a changed reference."""
        stream = _sa(encryption_key=b"e" * 16).keystream(0x0102030405, 16)
        assert stream.hex() == "f942d961330e1a485e9cd09ec72ab83d"

    @pytest.mark.parametrize("algo", ["md5", "sha1", "sha256"])
    @pytest.mark.parametrize("length", [0, 1, 1008])
    def test_icv_is_the_truncated_hmac(self, algo, length):
        """Byte-identical to ``hmac.new(...).digest()`` truncated, for
        every algorithm; a one-bit flip of the ICV fails ``verify``."""
        key = b"k" * 16
        data = bytes(i % 251 for i in range(length))
        sa = _sa(auth_key=key, auth_algorithm=f"hmac-{algo}")
        icv = sa.icv(data)
        assert icv == hmac.new(key, data, getattr(hashlib, algo)).digest()[:ICV_BYTES]
        assert sa.verify(data, icv)
        flipped = bytes([icv[0] ^ 0x01]) + icv[1:]
        assert not sa.verify(data, flipped)

    def test_encrypt_without_key_rejected(self):
        with pytest.raises(SecurityError):
            _sa().encrypt(1, b"data")

    def test_tunnel_mode_needs_endpoints(self):
        with pytest.raises(SecurityError):
            _sa(mode="tunnel")
        sa = _sa(mode="tunnel", tunnel_src="1.1.1.1", tunnel_dst="2.2.2.2")
        assert sa.mode == "tunnel"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SecurityError):
            _sa(mode="teleport")


class TestSADatabase:
    def test_add_get(self):
        sadb = SADatabase()
        sa = sadb.add(_sa(spi=7))
        assert sadb.get(7) is sa
        assert 7 in sadb

    def test_duplicate_spi_rejected(self):
        sadb = SADatabase()
        sadb.add(_sa(spi=7))
        with pytest.raises(SecurityError):
            sadb.add(_sa(spi=7))

    def test_unknown_spi(self):
        with pytest.raises(SecurityError):
            SADatabase().get(99)

    def test_remove(self):
        sadb = SADatabase()
        sadb.add(_sa(spi=7))
        assert sadb.remove(7)
        assert not sadb.remove(7)
        assert len(sadb) == 0
