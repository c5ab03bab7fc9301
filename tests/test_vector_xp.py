"""The pluggable array namespace: resolution rules and shim parity.

Resolution tests pin the documented precedence (explicit arg > process
override > ``REPRO_ARRAY_BACKEND`` > numpy) and the failure modes
(unknown names are :class:`ValueError`, known-but-missing backends are
:class:`~repro.vector.xp.BackendUnavailable`, never an import-time
crash).

Shim-parity tests run every numpy-API divergence shim the kernels rely
on against its numpy reference, once per *installed* backend (via the
``array_backend`` conftest fixture) — so a CI leg that installs torch
proves the torch adapters bit-compatible without any kernel in the
loop.
"""

import numpy as np
import pytest

from repro.vector import xp as xp_mod
from repro.vector.xp import BackendUnavailable


class TestResolution:
    def test_numpy_is_default(self, monkeypatch):
        monkeypatch.delenv(xp_mod.BACKEND_ENV, raising=False)
        assert xp_mod.get_backend().name == "numpy"
        assert xp_mod.get_backend(None).name == "numpy"

    def test_numpy_always_available(self):
        assert "numpy" in xp_mod.available_backends()
        assert xp_mod.backend_available("numpy")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(xp_mod.BACKEND_ENV, "numpy")
        assert xp_mod.get_backend().name == "numpy"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(xp_mod.BACKEND_ENV, "definitely-not-a-backend")
        # The env var is never consulted when a name is given.
        assert xp_mod.get_backend("numpy").name == "numpy"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(xp_mod.BACKEND_ENV, "definitely-not-a-backend")
        previous = xp_mod.set_backend("numpy")
        try:
            assert xp_mod.get_backend().name == "numpy"
        finally:
            xp_mod.set_backend(previous)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="known"):
            xp_mod.get_backend("tensorflow")
        with pytest.raises(ValueError):
            xp_mod.set_backend("tensorflow")

    def test_unavailable_backend_raises_backend_unavailable(self):
        if xp_mod.backend_available("torch"):
            pytest.skip("torch installed here")
        with pytest.raises(BackendUnavailable, match="torch"):
            xp_mod.get_backend("torch")

    def test_host_backends_only(self, monkeypatch):
        assert xp_mod.KNOWN_BACKENDS == ("numpy", "torch")
        for name in ("cupy", "torch:cuda", "torch-cuda"):
            with pytest.raises(ValueError, match="unknown array backend"):
                xp_mod.get_backend(name)
        monkeypatch.setenv(xp_mod.BACKEND_ENV, "cupy")
        with pytest.raises(ValueError, match="unknown array backend"):
            xp_mod.get_backend()

    def test_backend_unavailable_is_import_error(self):
        # Callers may catch plain ImportError around optional features.
        assert issubclass(BackendUnavailable, ImportError)

    def test_backend_skip_reason(self):
        assert xp_mod.backend_skip_reason("numpy") is None
        reason = xp_mod.backend_skip_reason("torch")
        assert reason is None or "torch" in reason
        with pytest.raises(ValueError):
            xp_mod.backend_skip_reason("tensorflow")

    def test_context_manager_restores(self):
        before = xp_mod.get_backend().name
        with xp_mod.backend("numpy") as ns:
            assert ns.name == "numpy"
        assert xp_mod.get_backend().name == before

    def test_instances_are_cached(self):
        assert xp_mod.get_backend("numpy") is xp_mod.get_backend("numpy")

    def test_module_getattr_passthrough(self):
        # `from repro.vector import xp; xp.<name>` resolves on the
        # *active* backend — pinned to numpy here.
        with xp_mod.backend("numpy"):
            assert xp_mod.float64 is np.float64
            arr = xp_mod.zeros((2, 3))
            assert isinstance(arr, np.ndarray)

    def test_namespace_of(self):
        assert xp_mod.namespace_of(np.ones(3)).name == "numpy"
        assert xp_mod.namespace_of([1, 2]).name == "numpy"  # host fallback

    def test_asnumpy_identity_on_host(self):
        a = np.arange(4)
        assert xp_mod.asnumpy(a) is a or (xp_mod.asnumpy(a) == a).all()


class TestShimParity:
    """Every divergence shim vs its numpy reference, per installed
    backend.  ``array_backend`` supplies numpy always and torch when
    installed (skip-with-reason otherwise)."""

    @pytest.fixture
    def ns(self, array_backend):
        return xp_mod.get_backend(array_backend)

    def _rt(self, ns, a):
        """Host -> backend -> host round trip."""
        return ns.asnumpy(ns.asarray(a))

    def test_asarray_roundtrip_preserves_dtype_and_values(self, ns):
        rng = np.random.default_rng(0)
        for dtype in (np.float64, np.float32, np.int64, np.uint8):
            a = (rng.uniform(0, 100, size=(4, 5)) + 0.5).astype(dtype)
            back = self._rt(ns, a)
            assert back.dtype == a.dtype
            assert (back == a).all()

    def test_astype_pins_float64_exactly(self, ns):
        a = np.array([0.1, 1e7, 3.5], dtype=np.float32)
        out = ns.asnumpy(ns.astype(ns.asarray(a), ns.float64))
        assert out.dtype == np.float64
        assert (out == a.astype(np.float64)).all()

    def test_where_with_python_scalars(self, ns):
        cond = np.array([True, False, True])
        x = np.array([1.5, 2.5, 3.5])
        got = ns.asnumpy(ns.where(ns.asarray(cond), ns.asarray(x), np.inf))
        assert (got == np.where(cond, x, np.inf)).all()
        assert got.dtype == np.float64
        ints = np.array([4, 5, 6], dtype=np.int64)
        got = ns.asnumpy(ns.where(ns.asarray(cond), ns.asarray(ints), -1))
        assert (got == np.where(cond, ints, -1)).all()
        assert got.dtype == np.int64

    def test_minimum_maximum_with_scalars(self, ns):
        a = np.array([-3, 0, 7], dtype=np.int64)
        assert (
            ns.asnumpy(ns.maximum(ns.asarray(a), 0)) == np.maximum(a, 0)
        ).all()
        assert (
            ns.asnumpy(ns.minimum(ns.asarray(a), 5)) == np.minimum(a, 5)
        ).all()
        f = np.array([1.0, np.inf, -2.0])
        assert (
            ns.asnumpy(ns.minimum(ns.asarray(f), ns.asarray(f[::-1].copy())))
            == np.minimum(f, f[::-1])
        ).all()

    def test_reductions_match_numpy(self, ns):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 6))
        for op in ("sum", "max", "min"):
            got = ns.asnumpy(getattr(ns, op)(ns.asarray(a), axis=1))
            want = getattr(np, op)(a, axis=1)
            assert np.array_equal(got, want), op
        m = a > 0
        assert (
            ns.asnumpy(ns.any(ns.asarray(m), axis=1)) == np.any(m, axis=1)
        ).all()
        assert (
            ns.asnumpy(ns.all(ns.asarray(m), axis=1)) == np.all(m, axis=1)
        ).all()
        assert bool(ns.any(ns.asarray(m))) == bool(m.any())

    def test_bool_sum_promotes_to_int(self, ns):
        m = np.array([[True, False, True], [False, False, True]])
        got = ns.asnumpy(ns.sum(ns.asarray(m), axis=1))
        assert (got == np.array([2, 1])).all()

    def test_argmax_argmin_incl_bool(self, ns):
        fits = np.array([[False, True, True], [False, False, False]])
        got = ns.asnumpy(ns.argmax(ns.asarray(fits), axis=1))
        assert (got == np.argmax(fits, axis=1)).all()
        key = np.array([[5, 2, 9], [1, 1, 0]], dtype=np.int32)
        got = ns.asnumpy(ns.argmin(ns.asarray(key), axis=1))
        assert (got == np.argmin(key, axis=1)).all()

    def test_cumsum_matches_numpy(self, ns):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 10, size=(4, 9))
        got = ns.asnumpy(ns.cumsum(ns.asarray(a), axis=1))
        assert (got == np.cumsum(a, axis=1)).all()

    def test_argsort_is_stable(self, ns):
        a = np.array([[2.0, 1.0, 2.0, 1.0, 1.0]])
        got = ns.asnumpy(ns.argsort(ns.asarray(a), axis=-1, kind="stable"))
        assert (got == np.argsort(a, axis=-1, kind="stable")).all()

    def test_lexsort_matches_numpy(self, ns):
        rng = np.random.default_rng(3)
        # small value alphabet -> dense ties on both keys
        primary = rng.integers(0, 4, size=(5, 12)).astype(np.float64)
        secondary = rng.integers(0, 3, size=(5, 12)).astype(np.float64)
        got = ns.asnumpy(
            ns.lexsort((ns.asarray(secondary), ns.asarray(primary)), axis=-1)
        )
        want = np.lexsort((secondary, primary), axis=-1)
        assert (got == want).all()

    def test_take_along_axis_matches_numpy(self, ns):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4, 6))
        idx = rng.integers(0, 6, size=(3, 4, 1))
        got = ns.asnumpy(
            ns.take_along_axis(ns.asarray(a), ns.asarray(idx), axis=2)
        )
        assert (got == np.take_along_axis(a, idx, axis=2)).all()

    def test_nonzero_returns_index_tuple(self, ns):
        m = np.array([True, False, True, True])
        got = ns.nonzero(ns.asarray(m))
        assert (ns.asnumpy(got[0]) == np.nonzero(m)[0]).all()

    def test_maximum_accumulate(self, ns):
        rng = np.random.default_rng(5)
        for dtype in (np.uint8, np.int16, np.float64):
            a = rng.integers(0, 100, size=(4, 20)).astype(dtype)
            got = ns.asnumpy(ns.maximum_accumulate(ns.asarray(a), axis=1))
            assert (got == np.maximum.accumulate(a, axis=1)).all()
            assert got.dtype == dtype

    def test_broadcast_tile_concatenate(self, ns):
        a = np.arange(6.0).reshape(2, 3)
        assert ns.asnumpy(ns.broadcast_to(ns.asarray(a[0]), (2, 3))).shape == (2, 3)
        assert (
            ns.asnumpy(ns.tile(ns.asarray(a[0]), (2, 1)))
            == np.tile(a[0], (2, 1))
        ).all()
        got = ns.asnumpy(ns.concatenate([ns.asarray(a), ns.asarray(a)], axis=1))
        assert (got == np.concatenate([a, a], axis=1)).all()

    def test_isfinite_isnan_floor(self, ns):
        a = np.array([1.5, np.inf, np.nan, -2.7])
        t = ns.asarray(a)
        assert (ns.asnumpy(ns.isfinite(t)) == np.isfinite(a)).all()
        assert (ns.asnumpy(ns.isnan(t)) == np.isnan(a)).all()
        finite = np.array([1.5, -2.7, 3.0])
        assert (
            ns.asnumpy(ns.floor(ns.asarray(finite))) == np.floor(finite)
        ).all()

    # -- bitmap shims -------------------------------------------------------

    def test_low_bits_table(self, ns):
        table = ns.asnumpy(ns.low_bits())
        want = np.array([(1 << j) - 1 for j in range(65)], dtype=np.uint64)
        # Compare through the uint64 view: torch stores the table as
        # reinterpreted int64.
        assert (table.view(np.uint64) == want).all()

    def test_bitmap_roundtrip_and_bitwise_ops(self, ns):
        rng = np.random.default_rng(6)
        words = rng.integers(0, 2**64, size=(3, 2), dtype=np.uint64)
        dev = ns.bitmap_from_host(words)
        back = ns.asnumpy(dev).view(np.uint64)
        assert (back == words).all()
        mask = ns.bitmap_from_host(
            np.full((3, 2), 0x0F0F0F0F0F0F0F0F, dtype=np.uint64)
        )
        anded = ns.asnumpy(dev & mask).view(np.uint64)
        assert (anded == (words & 0x0F0F0F0F0F0F0F0F)).all()
        ored = ns.asnumpy(dev | mask).view(np.uint64)
        assert (ored == (words | 0x0F0F0F0F0F0F0F0F)).all()
        notted = ns.asnumpy(~dev).view(np.uint64)
        assert (notted == ~words).all()

    def test_unpack_bitmap(self, ns):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(4, 2), dtype=np.uint64)
        for width in (1, 63, 64, 65, 100, 128):
            got = ns.asnumpy(
                ns.unpack_bitmap(ns.bitmap_from_host(words), width)
            )
            want = np.unpackbits(
                words.view(np.uint8), axis=1, bitorder="little"
            )[:, :width]
            assert got.shape == (4, width)
            assert (got == want).all(), width

    def test_col_index_dtype_and_values(self, ns):
        narrow = ns.asnumpy(ns.col_index(100))
        assert narrow.dtype == np.uint8
        assert (narrow == np.arange(1, 101)).all()
        wide = ns.asnumpy(ns.col_index(300))
        assert wide.dtype == np.int16
        with pytest.raises(ValueError):
            ns.col_index(10**6)

    def test_range_masks_and_span_free(self, ns):
        """The placement bit-kernels, straight through the shim layer."""
        from repro.vector.placement_vec import range_masks, span_free

        starts = np.array([0, 5, 60, 64, 0], dtype=np.int64)
        ends = np.array([3, 70, 64, 128, 128], dtype=np.int64)
        got = ns.asnumpy(
            range_masks(
                ns.asarray(starts), ns.asarray(ends), 2, ns=ns
            )
        ).view(np.uint64)
        want = range_masks(starts, ends, 2, ns=xp_mod.get_backend("numpy"))
        assert (got == want).all()
        # all-free 100-column device: spans inside [0, 100) are free
        words = np.zeros((5, 2), dtype=np.uint64)
        words[:, 0] = ~np.uint64(0)
        words[:, 1] = np.uint64((1 << 36) - 1)
        dev = ns.bitmap_from_host(words)
        s = np.array([0, 90, 95, -1, 20], dtype=np.int64)
        w = np.array([100, 10, 10, 5, 0], dtype=np.int64)
        got = ns.asnumpy(
            span_free(dev, ns.asarray(s), ns.asarray(w), 100, 2, ns=ns)
        )
        assert (got == np.array([True, True, False, False, False])).all()

    def test_sequential_sum_stays_in_input_namespace(self, ns):
        from repro.vector.batch import sequential_sum

        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 11))
        want = sequential_sum(a, axis=1)
        got = ns.asnumpy(sequential_sum(ns.asarray(a), axis=1))
        assert (got == want).all()
