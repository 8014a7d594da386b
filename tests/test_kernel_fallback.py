"""The SoA C-kernel fallback must warn, once, naming the failure.

A missing compiler (or a broken compile) must not degrade silently to
the ~5x slower reference engine: :func:`repro.simulator.kernel.load_c_kernel`
emits a single :class:`RuntimeWarning` that names the actual failure and
the fallback engine, and a successful compile warns about nothing.
"""

import warnings

import pytest

import repro.simulator.kernel as kernel_mod


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """Reset the once-per-process load guard onto a private cache dir."""
    monkeypatch.setattr(kernel_mod, "_loaded", None)
    monkeypatch.setattr(kernel_mod, "_load_attempted", False)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    return tmp_path


def _has_compiler() -> bool:
    return kernel_mod._compiler() is not None


class TestFallbackWarning:
    def test_missing_compiler_warns_once_naming_failure(
        self, fresh_loader, monkeypatch
    ):
        monkeypatch.setattr(kernel_mod, "_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert kernel_mod.load_c_kernel() is None
        # Second call: cached result, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_mod.load_c_kernel() is None

    def test_warning_names_the_reference_engine_fallback(
        self, fresh_loader, monkeypatch
    ):
        monkeypatch.setattr(kernel_mod, "_compiler", lambda: None)
        with pytest.warns(RuntimeWarning) as record:
            kernel_mod.load_c_kernel()
        message = str(record[0].message)
        assert "CycleEngine" in message
        assert "C compiler" in message

    @pytest.mark.skipif(not _has_compiler(), reason="needs a C compiler")
    def test_compile_error_warns_with_stderr(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(
            kernel_mod, "C_SOURCE", "int broken( {\n"  # unparsable C
        )
        with pytest.warns(RuntimeWarning, match="compilation failed"):
            assert kernel_mod.load_c_kernel() is None

    @pytest.mark.skipif(not _has_compiler(), reason="needs a C compiler")
    def test_successful_compile_is_silent(self, fresh_loader):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_mod.load_c_kernel() is not None


@pytest.mark.skipif(not _has_compiler(), reason="needs a C compiler")
class TestCorruptCacheRecovery:
    """A truncated/garbage cached ``.so`` must quarantine, not poison."""

    def _so_path(self, cache_dir):
        import hashlib

        tag = hashlib.sha256(kernel_mod.C_SOURCE.encode()).hexdigest()[:16]
        return cache_dir / f"repro_soa_{tag}.so"

    def test_corrupt_so_is_quarantined_and_recompiled(self, fresh_loader):
        so_path = self._so_path(fresh_loader)
        so_path.parent.mkdir(parents=True, exist_ok=True)
        so_path.write_bytes(b"not an ELF object")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_mod.load_c_kernel() is not None
            assert kernel_mod.load_span_kernel() is not None
        quarantined = so_path.with_suffix(".so.corrupt")
        assert quarantined.exists()
        assert quarantined.read_bytes() == b"not an ELF object"
        # The slot now holds a freshly compiled, loadable object.
        assert so_path.exists()

    def test_fresh_compile_failure_does_not_quarantine(
        self, fresh_loader, monkeypatch
    ):
        # A bad *compile* (no pre-existing .so) is a plain fallback:
        # nothing to quarantine, the reference engine takes over.
        monkeypatch.setattr(kernel_mod, "C_SOURCE", "int broken( {\n")
        with pytest.warns(RuntimeWarning, match="compilation failed"):
            assert kernel_mod.load_c_kernel() is None
        assert not list(fresh_loader.glob("*.corrupt"))


class TestAtomicWrite:
    def test_write_atomic_replaces_content(self, tmp_path):
        target = tmp_path / "out.c"
        target.write_text("old")
        kernel_mod._write_atomic(target, "new contents")
        assert target.read_text() == "new contents"
        # No stray tmp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["out.c"]

    def test_write_atomic_cleans_up_on_failure(self, tmp_path, monkeypatch):
        target = tmp_path / "out.c"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(kernel_mod.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            kernel_mod._write_atomic(target, "contents")
        assert list(tmp_path.iterdir()) == []
