"""Backend selection and bit-identity tests for ``repro.tensorlib.backend``.

The backend seam has one hard contract: environment differences (which
optional libraries happen to be installed, what ``REPRO_BACKEND`` says)
change *speed*, never *behaviour*.  These tests pin the selection machinery
— numpy default, loud failure on typos, scoped overrides — and, when numba
is installed, bit-identity of the JIT kernels against the numpy reference.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.tensorlib import backend as B


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Every test runs against a fresh process-wide backend state."""
    previous = B._ACTIVE
    yield
    B._ACTIVE = previous


class TestSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(B.BACKEND_ENV_VAR, raising=False)
        B.set_backend(None)
        assert type(B.get_backend()) is B.NumpyBackend

    def test_numpy_always_available(self):
        assert "numpy" in B.available_backends()
        assert set(B.available_backends()) <= set(B.KNOWN_BACKENDS)

    def test_unknown_name_raises(self):
        for name in ("fortran", "cupy"):
            with pytest.raises(KeyError, match="unknown backend"):
                B.create_backend(name)

    def test_missing_library_falls_back_with_warning(self, monkeypatch, caplog):
        # Pretend numba's import fails even if the library is present.  The
        # warning fires once per process per backend, so reset the dedup set.
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba is not installed")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        monkeypatch.setattr(B, "_FALLBACK_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="repro.tensorlib.backend"):
            backend = B.create_backend("numba")
        assert type(backend) is B.NumpyBackend
        assert any("falling back to numpy" in record.message for record in caplog.records)
        assert backend.fallback_from == "numba"
        assert "not installed" in backend.fallback_reason

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(B.BACKEND_ENV_VAR, "numpy")
        active = B.set_backend(None)
        assert type(active) is B.NumpyBackend

    def test_env_var_unknown_name_warns_and_degrades(self, monkeypatch, caplog):
        for name in ("fortran", "torch"):
            caplog.clear()
            monkeypatch.setenv(B.BACKEND_ENV_VAR, name)
            with caplog.at_level(logging.WARNING, logger="repro.tensorlib.backend"):
                active = B.set_backend(None)
            assert type(active) is B.NumpyBackend
            assert any("unknown backend" in record.message for record in caplog.records)

    def test_set_backend_accepts_instance(self):
        instance = B.NumpyBackend()
        assert B.set_backend(instance) is instance
        assert B.get_backend() is instance

    def test_use_backend_restores_previous(self):
        outer = B.set_backend(B.NumpyBackend())
        with B.use_backend("numpy") as inner:
            assert B.get_backend() is inner
            assert inner is not outer
        assert B.get_backend() is outer

    def test_use_backend_none_is_noop(self):
        outer = B.set_backend(B.NumpyBackend())
        with B.use_backend(None) as active:
            assert active is outer
        assert B.get_backend() is outer


class TestNumpyReference:
    def test_protocol_methods_match_numpy(self):
        backend = B.NumpyBackend()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(backend.matmul(a, b), a @ b)
        np.testing.assert_array_equal(backend.einsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b))
        np.testing.assert_array_equal(backend.take(a, [2, 0], axis=1), a[:, [2, 0]])
        np.testing.assert_array_equal(
            backend.pad(a, ((1, 1), (0, 0))), np.pad(a, ((1, 1), (0, 0)))
        )

    def test_conv_weight_grad_matches_einsum(self):
        backend = B.NumpyBackend()
        rng = np.random.default_rng(1)
        grad_mat = rng.standard_normal((2, 9, 4))  # (n, length, out_channels)
        cols = rng.standard_normal((2, 9, 27))  # (n, length, c*kh*kw)
        expected = np.einsum("nlo,nlk->ok", grad_mat, cols)
        np.testing.assert_allclose(backend.conv_weight_grad(grad_mat, cols), expected, rtol=1e-12)
        # world-batched variant: one result per world slice
        grad4 = rng.standard_normal((3, 2, 9, 4))
        cols4 = rng.standard_normal((3, 2, 9, 27))
        batched = backend.conv_weight_grad(grad4, cols4)
        for w in range(3):
            np.testing.assert_array_equal(batched[w], backend.conv_weight_grad(grad4[w], cols4[w]))


def _scatter_case(rng):
    """A small overlapping col2im case: images (2,3,8,8), 3x3 kernel, stride 2."""
    from repro.tensorlib.functional import im2col

    images = rng.standard_normal((2, 3, 8, 8))
    cols, _ = im2col(images, (3, 3), (2, 2), (1, 1))
    n, c, kh, kw = 2, 3, 3, 3
    out_h = out_w = 4
    reshaped = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(4, 5, 0, 3, 1, 2)
    padded = np.zeros((n, c, 10, 10))
    return np.ascontiguousarray(reshaped), padded


class TestNumbaBitIdentity:
    """Skips cleanly when numba is absent — behaviour must not depend on it."""

    def test_numba_backend_matches_numpy(self):
        pytest.importorskip("numba")
        numba_backend = B.create_backend("numba")
        if type(numba_backend) is B.NumpyBackend:
            pytest.skip("numba present but backend probes rejected it on this host")
        numpy_backend = B.NumpyBackend()
        rng = np.random.default_rng(2)

        grad_mat = rng.standard_normal((2, 9, 4))
        cols = rng.standard_normal((2, 9, 27))
        assert np.array_equal(
            numba_backend.conv_weight_grad(grad_mat, cols),
            numpy_backend.conv_weight_grad(grad_mat, cols),
        )
        grad4 = rng.standard_normal((3, 2, 9, 4))
        cols4 = rng.standard_normal((3, 2, 9, 27))
        assert np.array_equal(
            numba_backend.conv_weight_grad(grad4, cols4),
            numpy_backend.conv_weight_grad(grad4, cols4),
        )

        reshaped, padded = _scatter_case(rng)
        out_numba = padded.copy()
        numba_backend.col2im_scatter_add(out_numba, reshaped, 2, 2, 4, 4)
        out_numpy = padded.copy()
        numpy_backend.col2im_scatter_add(out_numpy, reshaped, 2, 2, 4, 4)
        assert np.array_equal(out_numba, out_numpy)

    def test_numba_selection_reports_numba(self):
        pytest.importorskip("numba")
        backend = B.create_backend("numba")
        if type(backend) is B.NumpyBackend:
            pytest.skip("numba present but backend probes rejected it on this host")
        assert "numba" in B.available_backends()
