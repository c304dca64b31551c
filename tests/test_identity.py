"""Training, decoding and checkpointing give the bytes recorded in
tests/data/identity.txt (see tests/identity.py for what each line covers)."""

from pathlib import Path

from identity import fingerprint

EXPECTED = Path(__file__).parent / "data" / "identity.txt"


def test_identity_unchanged():
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    got = list(fingerprint())
    changed = [f"{e!r} != {g!r}" for e, g in zip(expected, got) if e != g]
    assert not changed, "\n".join(changed)
    assert len(got) == len(expected)
