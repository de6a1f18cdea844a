"""Durable-write helper and the fsync-before-replace regression suite.

``repro.utils.fsio`` closes the durability gap FS002 flags: an
``os.replace`` publication whose temp was never fsynced can survive a
crash as a committed name over zero-length data. The first half tests
the helper in isolation (byte-identity with ``Path.write_text`` plus a
real fsync); the second half pins the durability-critical publication
site — checkpoint records — to the fsync-before-rename ordering, so a
refactor that drops the fsync fails here before it fails in a
power-loss postmortem.
"""

from __future__ import annotations

import os

import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.utils.fsio import fsync_write_text


class _FsyncSpy:
    """Counts fsyncs and asserts no ``os.replace`` precedes them."""

    def __init__(self, monkeypatch):
        self.synced = 0
        self.synced_at_publish: list[int] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def fsync(fd):
            self.synced += 1
            real_fsync(fd)

        def replace(src, dst):
            self.synced_at_publish.append(self.synced)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

    def assert_fsync_before_every_replace(self):
        assert self.synced_at_publish, "no publication ran"
        assert all(n >= 1 for n in self.synced_at_publish), (
            "a publication ran before any fsync: "
            f"{self.synced_at_publish}"
        )


class TestHelpers:
    def test_text_bytes_identical_to_write_text(self, tmp_path):
        text = "line one\nline two\n"
        durable = tmp_path / "durable.txt"
        plain = tmp_path / "plain.txt"
        fsync_write_text(durable, text)
        plain.write_text(text, encoding="utf-8")
        assert durable.read_bytes() == plain.read_bytes()

    def test_text_helper_fsyncs(self, tmp_path, monkeypatch):
        spy = _FsyncSpy(monkeypatch)
        fsync_write_text(tmp_path / "x.txt", "payload")
        assert spy.synced == 1


class TestPublicationSitesAreDurable:
    def test_checkpoint_record_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        spy = _FsyncSpy(monkeypatch)
        store = CheckpointStore(tmp_path)
        assert store.save("a" * 40, "cell", "table2", {"value": 7})
        spy.assert_fsync_before_every_replace()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
