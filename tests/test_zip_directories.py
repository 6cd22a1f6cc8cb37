"""``stream_df.keep_zip_directories``: after it, ``importlib.invalidate_caches()``
re-reads a zip archive's directory only when the archive changed. No
Spark needed: the helper patches this process's ``zipimport``."""
import importlib
import os
import sys
import zipfile
import zipimport

import pytest

from repro.spark.stream_df import keep_zip_directories

MODULE = "zip_directories_probe"


@pytest.fixture
def zipimporter_restored(monkeypatch):
    """Undo the helper's patch of ``zipimporter`` after the test."""
    cls = zipimport.zipimporter
    monkeypatch.setattr(cls, "invalidate_caches", cls.invalidate_caches)
    monkeypatch.setattr(cls, "_keeps_directory", False, raising=False)
    return cls


def _write_archive(path, source: str) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(f"{MODULE}.py", source)


def _import_fresh():
    sys.modules.pop(MODULE, None)
    return importlib.import_module(MODULE)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 drops the cache instead")
def test_unchanged_archive_is_not_reread(tmp_path, monkeypatch, zipimporter_restored):
    archive = tmp_path / "probe.zip"
    _write_archive(archive, "VALUE = 1\n")
    monkeypatch.syspath_prepend(str(archive))
    try:
        assert _import_fresh().VALUE == 1
        keep_zip_directories()
        keep_zip_directories()  # idempotent: the original stays one call away

        reads = []
        read_directory = zipimport._read_directory
        monkeypatch.setattr(
            zipimport, "_read_directory", lambda p: reads.append(p) or read_directory(p)
        )
        importlib.invalidate_caches()  # each importer stamps its archive once
        assert reads.count(str(archive)) == 1
        reads.clear()
        importlib.invalidate_caches()
        importlib.invalidate_caches()
        assert reads == []

        _write_archive(archive, "VALUE = 22  # rewritten\n")
        st = archive.stat()
        os.utime(archive, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        importlib.invalidate_caches()
        assert reads == [str(archive)]
        assert _import_fresh().VALUE == 22
    finally:
        sys.modules.pop(MODULE, None)


def test_python_313_left_untouched(monkeypatch, zipimporter_restored):
    cls = zipimporter_restored
    original = cls.invalidate_caches
    with monkeypatch.context() as m:
        m.setattr(sys, "version_info", (3, 13, 0, "final", 0))
        keep_zip_directories()
    assert cls.invalidate_caches is original
    assert not cls._keeps_directory
