from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moltiers.losses
from moltiers.errors import DegenerateVariance, NotNormalized, ShapeMismatch
from moltiers.losses import (
    LinearMap,
    LossParams,
    hybrid_loss,
    l2_normalize_rows,
    load_embeddings,
    nt_xent,
    pairwise_distance_correlation,
    pearson,
    rank_average,
    siglip_loss,
    spearman,
)

from oracles import (
    brute_pearson,
    brute_spearman,
    finite_difference,
    max_rel_error,
    reference_nt_xent,
    reference_rank_average,
    reference_siglip_loss,
)


def rand_unit(rng, n, d):
    return l2_normalize_rows(rng.normal(size=(n, d)))


class TestNtXent:
    def test_identity_pair_example(self):
        # positives score 1, the single negative scores 0, tau=1:
        # each row contributes -log(e / e^0) = -1
        v = np.eye(2)
        assert nt_xent(v, v, 1.0).loss == pytest.approx(-2.0, abs=1e-12)

    def test_identical_rows_symmetric_terms(self):
        row = np.array([1.0, 0.0, 0.0])
        v = np.tile(row, (4, 1))
        res = nt_xent(v, v, 0.5)
        # all similarities equal -> every row term is log(N-1)
        expected = 4 * math.log(3)
        assert res.loss == pytest.approx(expected, abs=1e-12)

    def test_canonical_denominator_flag(self):
        rng = np.random.default_rng(3)
        v1, v2 = rand_unit(rng, 4, 8), rand_unit(rng, 4, 8)
        printed = nt_xent(v1, v2, 0.07).loss
        canonical = nt_xent(
            v1, v2, 0.07, include_positive_in_denominator=True
        ).loss
        assert canonical > printed  # denominator gains the positive term
        assert canonical >= 0.0

    def test_gradients_match_fd(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n, d = (2, 4, 8)[seed % 3], (4, 8)[seed % 2]
            v1, v2 = rand_unit(rng, n, d), rand_unit(rng, n, d)
            res = nt_xent(v1, v2, 0.07)
            fd1 = finite_difference(lambda m: nt_xent(m, v2, 0.07).loss, v1)
            fd2 = finite_difference(lambda m: nt_xent(v1, m, 0.07).loss, v2)
            assert max_rel_error(res.grad_v1, fd1) < 1e-5
            assert max_rel_error(res.grad_v2, fd2) < 1e-5

    def test_shape_and_norm_validation(self):
        v = np.eye(2)
        with pytest.raises(ShapeMismatch):
            nt_xent(v, np.eye(3))
        with pytest.raises(ShapeMismatch):
            nt_xent(v[:1], v[:1])  # N=1 has an empty denominator
        with pytest.raises(NotNormalized):
            nt_xent(2.0 * v, v, check_normalized=True)
        for temperature in (0.0, -0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                nt_xent(np.eye(3), np.eye(3), temperature)


class TestSiglip:
    def test_single_pair_zero_sim(self):
        v = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        assert siglip_loss(v, t, 1.0, 0.0).loss == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_identity_pair_hand_value(self):
        v = np.eye(2)
        expected = (2 * -math.log(1 / (1 + math.exp(-1.0)))
                    + 2 * math.log(2.0)) / 4
        assert siglip_loss(v, v, 1.0, 0.0).loss == pytest.approx(
            expected, abs=1e-12
        )

    def test_signed_vs_unsigned_bias(self):
        rng = np.random.default_rng(5)
        v, t = rand_unit(rng, 3, 4), rand_unit(rng, 3, 4)
        signed = siglip_loss(v, t, 1.0, 0.4).loss
        unsigned = siglip_loss(v, t, 1.0, 0.4, signed_bias=False).loss
        assert signed != pytest.approx(unsigned)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        v, t = rand_unit(rng, 5, 8), rand_unit(rng, 5, 8)
        perm = rng.permutation(5)
        assert siglip_loss(v, t, 1.2, -0.3).loss == pytest.approx(
            siglip_loss(v[perm], t[perm], 1.2, -0.3).loss, abs=1e-12
        )

    def test_gradients_match_fd(self):
        for seed in range(6):
            rng = np.random.default_rng(seed + 50)
            n, d = (2, 4, 8)[seed % 3], (4, 8)[seed % 2]
            v, t = rand_unit(rng, n, d), rand_unit(rng, n, d)
            s, b = 1.4, -0.2
            res = siglip_loss(v, t, s, b)
            assert max_rel_error(
                res.grad_v,
                finite_difference(lambda m: siglip_loss(m, t, s, b).loss, v),
            ) < 1e-5
            assert max_rel_error(
                res.grad_t,
                finite_difference(lambda m: siglip_loss(v, m, s, b).loss, t),
            ) < 1e-5
            fd_s = finite_difference(
                lambda m: siglip_loss(v, t, float(m[0]), b).loss, np.array([s])
            )
            fd_b = finite_difference(
                lambda m: siglip_loss(v, t, s, float(m[0])).loss, np.array([b])
            )
            assert max_rel_error(np.array([res.grad_scale]), fd_s) < 1e-5
            assert max_rel_error(np.array([res.grad_bias]), fd_b) < 1e-5

    def test_extreme_logits_stable(self):
        v = np.eye(2)
        res = siglip_loss(v, v, 1000.0, 0.0)
        assert np.isfinite(res.loss)
        assert np.all(np.isfinite(res.grad_v))


class TestHybrid:
    def make(self, seed, n=4, d=8, dg=16):
        rng = np.random.default_rng(seed)
        v = rand_unit(rng, n, d)
        g = rng.normal(size=(n, dg))
        proj = LinearMap(rng.normal(size=(d, dg)), rng.normal(size=d))
        head = LinearMap(rng.normal(size=(1, d)), rng.normal(size=1))
        y = rng.normal(size=n)
        return v, g, proj, head, y

    def test_degenerate_identity(self):
        v, _, _, head, _ = self.make(1)
        identity = LinearMap(np.eye(8), np.zeros(8))
        y = (v @ head.weight.T + head.bias)[:, 0]
        params = LossParams(bias=0.25, scale=1.5)
        res = hybrid_loss(v, v, identity, head, y, params)
        ref = siglip_loss(v, v, params.scale, params.bias).loss
        assert res.loss == pytest.approx(ref, abs=1e-12)
        assert res.align_term == 0.0
        assert res.target_term == 0.0

    def test_zero_weights_reduce_to_siglip(self):
        v, g, proj, head, y = self.make(2)
        params = LossParams(alpha=0.0, beta=0.0)
        res = hybrid_loss(v, g, proj, head, y, params)
        t = proj(g)
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        assert res.loss == pytest.approx(siglip_loss(v, t, 1.0, 0.0).loss,
                                         abs=1e-12)

    def test_lower_bounded_by_siglip_term(self):
        for seed in range(5):
            v, g, proj, head, y = self.make(seed + 30)
            res = hybrid_loss(v, g, proj, head, y, LossParams())
            assert res.loss >= res.siglip_term - 1e-12

    def test_gradients_match_fd(self):
        v, g, proj, head, y = self.make(7)
        params = LossParams(bias=0.3, scale=1.7)
        res = hybrid_loss(v, g, proj, head, y, params)

        def loss(v=v, w=proj.weight, pb=proj.bias, hw=head.weight, hb=head.bias):
            return hybrid_loss(v, g, LinearMap(w, pb), LinearMap(hw, hb), y,
                               params).loss

        pairs = [
            (res.grad_v, finite_difference(lambda m: loss(v=m), v)),
            (res.grad_proj_weight,
             finite_difference(lambda m: loss(w=m), proj.weight)),
            (res.grad_proj_bias,
             finite_difference(lambda m: loss(pb=m), proj.bias)),
            (res.grad_head_weight,
             finite_difference(lambda m: loss(hw=m), head.weight)),
            (res.grad_head_bias,
             finite_difference(lambda m: loss(hb=m), head.bias)),
        ]
        for analytic, numeric in pairs:
            assert max_rel_error(analytic, numeric) < 1e-5

    def test_shape_validation(self):
        v, g, proj, head, y = self.make(4)
        with pytest.raises(ShapeMismatch):
            hybrid_loss(v, g[:2], proj, head, y)
        with pytest.raises(ShapeMismatch):
            hybrid_loss(v, g, proj, head, y[:2])
        with pytest.raises(ShapeMismatch):
            hybrid_loss(v, g, LinearMap(np.zeros((3, 3)), np.zeros(3)), head, y)

    def test_weights_must_be_nonnegative_numbers(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="loss weights must be >= 0"):
                LossParams(alpha=bad)
            with pytest.raises(ValueError, match="loss weights must be >= 0"):
                LossParams(beta=bad)
        assert LossParams(alpha=0.0, beta=float("inf")).beta == float("inf")


def _text_without_header(tmp_path):
    path = tmp_path / "no_header.txt"
    path.write_text("1 2 3\n4 5 6\n")
    return path


_UNIT = np.eye(3)
_UNIT_2 = np.eye(2)
_HYBRID = TestHybrid().make(4)

# (call, error, message): the input checks of the kernels, the
# correlations and the embedding reader that no other test reaches
INPUT_CHECKS = {
    "nt_xent-v2-not-unit": (
        lambda tmp: nt_xent(_UNIT, 2.0 * _UNIT, check_normalized=True),
        NotNormalized, "v2 rows are not unit-norm"),
    "siglip-v-not-unit": (
        lambda tmp: siglip_loss(2.0 * _UNIT, _UNIT, check_normalized=True),
        NotNormalized, "v rows are not unit-norm"),
    "siglip-t-not-unit": (
        lambda tmp: siglip_loss(_UNIT, 2.0 * _UNIT, check_normalized=True),
        NotNormalized, "t rows are not unit-norm"),
    "hybrid-v-not-unit": (
        lambda tmp: hybrid_loss(2.0 * _HYBRID[0], *_HYBRID[1:],
                                check_normalized=True),
        NotNormalized, "v rows are not unit-norm"),
    "siglip-shapes": (
        lambda tmp: siglip_loss(_UNIT, _UNIT_2),
        ShapeMismatch, r"shape mismatch \(3, 3\) vs \(2, 2\)"),
    "hybrid-head-shape": (
        lambda tmp: hybrid_loss(*_HYBRID[:3], LinearMap(np.ones((2, 8)), np.ones(2)),
                                _HYBRID[4]),
        ShapeMismatch, "head map has wrong shape"),
    "hybrid-zero-teacher-row": (
        lambda tmp: hybrid_loss(_HYBRID[0], _HYBRID[1],
                                LinearMap(np.zeros((8, 16)), np.zeros(8)),
                                *_HYBRID[3:]),
        ValueError, "projected teacher row has zero norm"),
    "kernel-1d-input": (
        lambda tmp: nt_xent(np.ones(3), np.ones(3)),
        ShapeMismatch, "v1 must be a non-empty 2-D matrix"),
    "normalize-zero-row": (
        lambda tmp: l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]])),
        ValueError, "cannot normalize a zero row"),
    "pearson-constant": (
        lambda tmp: pearson(np.ones(4), np.arange(4.0)),
        DegenerateVariance, "constant input to correlation"),
    "correlation-row-counts": (
        lambda tmp: pairwise_distance_correlation(_UNIT, _UNIT_2, 10),
        ShapeMismatch, "row counts differ"),
    "correlation-one-row": (
        lambda tmp: pairwise_distance_correlation(_UNIT[:1], _UNIT[:1], 10),
        ShapeMismatch, "need at least two rows"),
    "correlation-one-pair": (
        lambda tmp: pairwise_distance_correlation(_UNIT, _UNIT, 1),
        ValueError, "n_pairs must be >= 2"),
    "embeddings-no-header": (
        lambda tmp: load_embeddings(_text_without_header(tmp)),
        ValueError, "expected 'N d' header line"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case, tmp_path):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_unit_rows_pass_check_normalized():
    rng = np.random.default_rng(5)
    v, t = rand_unit(rng, 6, 4), rand_unit(rng, 6, 4)
    for checked, unchecked in (
        (nt_xent(v, t, check_normalized=True), nt_xent(v, t)),
        (siglip_loss(v, t, check_normalized=True), siglip_loss(v, t)),
        (hybrid_loss(*_HYBRID, check_normalized=True), hybrid_loss(*_HYBRID)),
    ):
        assert result_bits(checked) == result_bits(unchecked)


def read_only(*arrays):
    """float64 copies that raise on any write, so a kernel that writes its
    inputs fails, and ``_as_matrix`` hands the kernel these very arrays."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
        out.append(a)
    return out


def assert_nt_xent_matches(v1, v2, temperature, include):
    res = nt_xent(v1, v2, temperature, include)
    loss, grad_v1, grad_v2 = reference_nt_xent(v1, v2, temperature, include)
    assert res.loss == loss
    assert np.array_equal(res.grad_v1, grad_v1)
    assert np.array_equal(res.grad_v2, grad_v2)


def assert_siglip_matches(v, t, scale, bias, signed_bias):
    res = siglip_loss(v, t, scale, bias, signed_bias)
    loss, grad_v, grad_t, grad_scale, grad_bias = reference_siglip_loss(
        v, t, scale, bias, signed_bias)
    assert res.loss == loss
    assert np.array_equal(res.grad_v, grad_v)
    assert np.array_equal(res.grad_t, grad_t)
    assert res.grad_scale == grad_scale
    assert res.grad_bias == grad_bias


def reference_hybrid(v, g, proj, head, y, params):
    """hybrid_loss with its inner sigmoid loss taken from the reference."""
    def siglip(v, t, scale, bias):
        return moltiers.losses.SiglipResult(*reference_siglip_loss(v, t, scale, bias))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moltiers.losses, "siglip_loss", siglip)
        return hybrid_loss(v, g, proj, head, y, params)


def assert_hybrid_matches(v, g, proj, head, y, params):
    res = hybrid_loss(v, g, proj, head, y, params)
    ref = reference_hybrid(v, g, proj, head, y, params)
    for name in ("loss", "siglip_term", "align_term", "target_term"):
        assert getattr(res, name) == getattr(ref, name), name
    for name in ("grad_v", "grad_proj_weight", "grad_proj_bias",
                 "grad_head_weight", "grad_head_bias"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name


# the inputs of the kernel property tests
KERNEL_CASE = dict(
    n=st.integers(2, 12),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    unit=st.booleans(),
    scale=st.floats(0.0, 2000.0),
    bias=st.floats(-900.0, 900.0),
    signed_bias=st.booleans(),
    temperature=st.floats(1e-4, 10.0),
    include=st.booleans(),
    alpha=st.floats(0.0, 20.0),
    beta=st.floats(0.0, 5.0),
)


def case_inputs(n, d, seed, unit):
    """Read-only seeded (v, t, g, proj, head, y) of a property case."""
    rng = np.random.default_rng(seed)
    v, t = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if unit:
        v, t = l2_normalize_rows(v), l2_normalize_rows(t)
    g, y = rng.normal(size=(n, d + 1)), rng.normal(size=n)
    w, pb = rng.normal(size=(d, d + 1)), rng.normal(size=d)
    hw, hb = rng.normal(size=(1, d)), rng.normal(size=1)
    v, t, g, y, w, pb, hw, hb = read_only(v, t, g, y, w, pb, hw, hb)
    return v, t, g, LinearMap(w, pb), LinearMap(hw, hb), y


class TestKernelsMatchReference:
    """The kernels return the exact bits of the label-matrix and
    softmax-copy versions kept in ``oracles``, and never write an input."""

    def test_random_batches(self):
        rng = np.random.default_rng(2023)
        for k in range(300):
            n, d = int(rng.integers(2, 41)), int(rng.integers(1, 17))
            v, t = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            if k % 2:
                v, t = l2_normalize_rows(v), l2_normalize_rows(t)
            v, t = read_only(v, t)
            # every third batch scales similarities by 800-2,000
            scale = (float(rng.uniform(800.0, 2000.0)) if k % 3 == 0
                     else float(rng.uniform(0.0, 10.0)))
            bias = (float(rng.uniform(-900.0, 900.0)) if k % 4 == 0
                    else float(rng.normal()))
            for signed_bias in (True, False):
                assert_siglip_matches(v, t, scale, bias, signed_bias)
            temperature = float(10.0 ** rng.uniform(-4.0, 0.5))
            for include in (False, True):
                assert_nt_xent_matches(v, t, temperature, include)

    def test_extreme_logits(self):
        v, t = read_only(np.eye(3), np.eye(3)[::-1])
        for scale, bias in ((1000.0, 0.0), (2000.0, -900.0), (800.0, 900.0)):
            for signed_bias in (True, False):
                assert_siglip_matches(v, t, scale, bias, signed_bias)
        for temperature in (1e-4, 1e-3):
            for include in (False, True):
                assert_nt_xent_matches(v, t, temperature, include)

    def test_hybrid_at_step_shape(self):
        rng = np.random.default_rng(11)
        n, d = 256, 128
        v = rand_unit(rng, n, d)
        g, y = rng.normal(size=(n, d)), rng.normal(size=n)
        w, hw = rng.standard_normal((d, d)) / np.sqrt(d), rng.standard_normal((1, d))
        v, g, y, w, hw, pb, hb = read_only(v, g, y, w, hw, np.zeros(d), np.zeros(1))
        assert_hybrid_matches(v, g, LinearMap(w, pb), LinearMap(hw, hb), y,
                              LossParams(bias=-0.4, scale=2.5))

    def test_pair_kernels_at_step_shape(self):
        rng = np.random.default_rng(12)
        v, t = read_only(rand_unit(rng, 256, 128), rand_unit(rng, 256, 128))
        assert_siglip_matches(v, t, 2.5, -0.4, True)
        assert_siglip_matches(v, t, 2.5, -0.4, False)
        assert_nt_xent_matches(v, t, 0.07, False)
        assert_nt_xent_matches(v, t, 0.07, True)

    @settings(max_examples=200, deadline=None)
    @given(**KERNEL_CASE)
    def test_property(self, n, d, seed, unit, scale, bias, signed_bias,
                      temperature, include, alpha, beta):
        v, t, g, proj, head, y = case_inputs(n, d, seed, unit)
        assert_siglip_matches(v, t, scale, bias, signed_bias)
        assert_nt_xent_matches(v, t, temperature, include)
        assert_hybrid_matches(v, g, proj, head, y,
                              LossParams(bias=bias, scale=scale, alpha=alpha,
                                         beta=beta))


def hybrid_inputs(rng, n, d):
    """Read-only hybrid_loss inputs: unit student rows, teacher rows one
    wider, both maps and the targets."""
    v, g, y, w, pb, hw, hb = read_only(
        rand_unit(rng, n, d), rng.normal(size=(n, d + 3)), rng.normal(size=n),
        rng.normal(size=(d, d + 3)), rng.normal(size=d),
        rng.normal(size=(1, d)), rng.normal(size=1))
    return v, g, LinearMap(w, pb), LinearMap(hw, hb), y


def kernel_results(n, d, seed, calls=6, before_each=lambda: None):
    """Results of ``calls`` rounds of the three kernels on seeded inputs;
    ``before_each`` runs before every kernel call."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(calls):
        v, t = read_only(rand_unit(rng, n, d), rand_unit(rng, n, d))
        before_each()
        out.append(siglip_loss(v, t, 1.5, -0.2))
        before_each()
        out.append(nt_xent(v, t, 0.1))
        v, g, proj, head, y = hybrid_inputs(rng, n, d)
        before_each()
        out.append(hybrid_loss(v, g, proj, head, y, LossParams(bias=0.3)))
    return out


def result_bits(res):
    """Every field of a kernel result as bytes, so NaN compares too."""
    return tuple(np.asarray(value).tobytes() for value in vars(res).values())


class TestWorkspace:
    """The pair kernels keep their n x n matrices in a per-thread workspace;
    no result may share it, and no thread may see another's."""

    def test_results_unchanged_by_later_calls(self):
        first = kernel_results(24, 5, seed=1, calls=1)
        saved = [result_bits(res) for res in first]
        kernel_results(24, 5, seed=2)   # same n: the same workspace
        kernel_results(9, 5, seed=3)    # another n: a new workspace
        kernel_results(24, 5, seed=4)
        assert [result_bits(res) for res in first] == saved

    def test_threads_match_serial_calls(self):
        # two threads per batch size: a workspace shared between threads
        # would be written by both at once
        # the last two batches span two row blocks
        many = moltiers.losses.ROW_BLOCK + 9
        jobs = [(8, 3, 10, 20), (13, 4, 11, 20), (8, 3, 12, 20), (13, 4, 13, 20),
                (many, 3, 14, 20), (many, 3, 15, 20)]
        serial = [[result_bits(r) for r in kernel_results(*job)] for job in jobs]
        barrier = threading.Barrier(len(jobs), timeout=30)
        got: list = [None] * len(jobs)

        def work(k, job):
            # every thread enters each kernel call together
            got[k] = [result_bits(r)
                      for r in kernel_results(*job, before_each=barrier.wait)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k, job))
                       for k, job in enumerate(jobs)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == serial

    def test_batch_size_changes_match_reference(self):
        rng = np.random.default_rng(14)
        for n in (256, 40, 256):
            v, t = read_only(rand_unit(rng, n, 128), rand_unit(rng, n, 128))
            assert_siglip_matches(v, t, 1.7, 0.3, True)
            assert_nt_xent_matches(v, t, 0.07, False)
            v, g, proj, head, y = hybrid_inputs(rng, n, 128)
            assert_hybrid_matches(v, g, proj, head, y, LossParams(bias=0.3))


class TestAllocations:
    """After a warm-up call, a kernel allocates less than one n x n float64
    matrix: tracemalloc sees numpy's array data, so this counts bytes
    instead of timing them."""

    N, D = 128, 16
    PAIR_MATRIX_BYTES = N * N * 8

    @pytest.mark.parametrize("kernel", ["nt_xent", "siglip_loss", "hybrid_loss"])
    def test_second_call_allocates_no_pair_matrix(self, kernel):
        rng = np.random.default_rng(15)
        v, g, proj, head, y = hybrid_inputs(rng, self.N, self.D)
        t = rand_unit(rng, self.N, self.D)
        call = {
            "nt_xent": lambda: nt_xent(v, t),
            "siglip_loss": lambda: siglip_loss(v, t),
            "hybrid_loss": lambda: hybrid_loss(v, g, proj, head, y),
        }[kernel]
        tracemalloc.start()
        try:
            call()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < self.PAIR_MATRIX_BYTES


def row_norm_max(m) -> float:
    return float(np.sqrt(np.sum(m * m, axis=1)).max())


def assert_near(got, want, magnitude):
    """Every element of ``got`` within 1e-12 * ``magnitude`` of ``want``.

    ``magnitude`` bounds the summed absolute terms behind each element,
    scaled by 1 + the largest logit, whose rounding the exponential
    carries into every term; blocks sum those terms in another order."""
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    assert err <= 1e-12 * magnitude, (err, magnitude)


def assert_nt_xent_near(v1, v2, temperature, include):
    res = nt_xent(v1, v2, temperature, include)
    loss, grad_v1, grad_v2 = reference_nt_xent(v1, v2, temperature, include)
    n, r1, r2 = len(v1), row_norm_max(v1), row_norm_max(v2)
    logit = 1.0 + r1 * r2 / temperature
    assert_near(res.loss, loss, n * logit)
    assert_near(res.grad_v1, grad_v1, logit * r2 / temperature)
    assert_near(res.grad_v2, grad_v2, logit * n * r1 / temperature)


def siglip_logit(v, t, scale, bias) -> float:
    return 1.0 + abs(scale) * row_norm_max(v) * row_norm_max(t) + abs(bias)


def assert_siglip_near(v, t, scale, bias, signed_bias):
    res = siglip_loss(v, t, scale, bias, signed_bias)
    loss, grad_v, grad_t, grad_scale, grad_bias = reference_siglip_loss(
        v, t, scale, bias, signed_bias)
    n, rv, rt = len(v), row_norm_max(v), row_norm_max(t)
    logit = siglip_logit(v, t, scale, bias)
    assert_near(res.loss, loss, logit)
    assert_near(res.grad_v, grad_v, logit * abs(scale) * rt / n)
    assert_near(res.grad_t, grad_t, logit * abs(scale) * rv / n)
    assert_near(res.grad_scale, grad_scale, logit * rv * rt)
    assert_near(res.grad_bias, grad_bias, logit)


def assert_hybrid_near(v, g, proj, head, y, params):
    """Only the inner sigmoid loss runs in blocks: the alignment and head
    terms keep their bits, and the rest is within the sigmoid loss's
    bound carried through the row normalization of proj(g)."""
    res = hybrid_loss(v, g, proj, head, y, params)
    ref = reference_hybrid(v, g, proj, head, y, params)
    for name in ("align_term", "target_term", "grad_head_weight",
                 "grad_head_bias"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    n, scale = len(v), params.scale
    u = proj(g)
    logit = siglip_logit(v, u / np.linalg.norm(u, axis=1, keepdims=True),
                         scale, params.bias)
    grad_t = logit * abs(scale) * row_norm_max(v) / n
    grad_u = n * grad_t / float(np.linalg.norm(u, axis=1).min())
    assert_near(res.siglip_term, ref.siglip_term, logit)
    assert_near(res.loss, ref.loss, logit + abs(ref.loss))
    assert_near(res.grad_v, ref.grad_v,
                logit * abs(scale) / n + np.abs(ref.grad_v).max())
    assert_near(res.grad_proj_weight, ref.grad_proj_weight,
                grad_u * np.abs(g).max() + np.abs(ref.grad_proj_weight).max())
    assert_near(res.grad_proj_bias, ref.grad_proj_bias,
                grad_u + np.abs(ref.grad_proj_bias).max())


class TestRowBlocks:
    """Above ``ROW_BLOCK`` rows the pair kernels sum their blocks' terms;
    the results stay within rounding of the whole-matrix oracles."""

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 0), (3, 7)])
    def test_large_batches_match_reference(self, blocks):
        n = blocks[0] * moltiers.losses.ROW_BLOCK + blocks[1]
        rng = np.random.default_rng(n)
        v, t = read_only(rand_unit(rng, n, 8), rand_unit(rng, n, 8))
        for scale, bias in ((1.5, -0.2), (2000.0, -900.0), (800.0, 900.0)):
            for signed_bias in (True, False):
                assert_siglip_near(v, t, scale, bias, signed_bias)
        for temperature in (0.07, 1e-4):
            for include in (False, True):
                assert_nt_xent_near(v, t, temperature, include)
        v, g, proj, head, y = hybrid_inputs(rng, n, 8)
        for scale, bias in ((2.5, -0.4), (1200.0, 900.0)):
            assert_hybrid_near(v, g, proj, head, y,
                               LossParams(bias=bias, scale=scale))

    @settings(max_examples=200, deadline=None)
    @given(**KERNEL_CASE)
    def test_property_three_row_blocks(self, n, d, seed, unit, scale, bias,
                                       signed_bias, temperature, include,
                                       alpha, beta):
        v, t, g, proj, head, y = case_inputs(n, d, seed, unit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moltiers.losses, "ROW_BLOCK", 3)
            assert_siglip_near(v, t, scale, bias, signed_bias)
            assert_nt_xent_near(v, t, temperature, include)
            assert_hybrid_near(v, g, proj, head, y,
                               LossParams(bias=bias, scale=scale, alpha=alpha,
                                          beta=beta))

    def test_gradients_match_fd_across_blocks(self, monkeypatch):
        # seven rows in blocks of three: two full blocks and one of a row
        monkeypatch.setattr(moltiers.losses, "ROW_BLOCK", 3)
        rng = np.random.default_rng(16)
        v, t = rand_unit(rng, 7, 4), rand_unit(rng, 7, 4)
        res = nt_xent(v, t, 0.2)
        assert max_rel_error(res.grad_v1, finite_difference(
            lambda m: nt_xent(m, t, 0.2).loss, v)) < 1e-5
        assert max_rel_error(res.grad_v2, finite_difference(
            lambda m: nt_xent(v, m, 0.2).loss, t)) < 1e-5
        s, b = 1.4, -0.2
        res = siglip_loss(v, t, s, b)
        numeric = [
            finite_difference(lambda m: siglip_loss(m, t, s, b).loss, v),
            finite_difference(lambda m: siglip_loss(v, m, s, b).loss, t),
            finite_difference(lambda m: siglip_loss(v, t, float(m[0]), b).loss,
                              np.array([s])),
            finite_difference(lambda m: siglip_loss(v, t, s, float(m[0])).loss,
                              np.array([b])),
        ]
        for analytic, fd in zip((res.grad_v, res.grad_t, [res.grad_scale],
                                 [res.grad_bias]), numeric):
            assert max_rel_error(analytic, fd) < 1e-5
        v, g, proj, head, y = TestHybrid().make(17, n=7)
        params = LossParams(bias=0.3, scale=1.7)
        res = hybrid_loss(v, g, proj, head, y, params)
        assert max_rel_error(res.grad_v, finite_difference(
            lambda m: hybrid_loss(m, g, proj, head, y, params).loss, v)) < 1e-5
        assert max_rel_error(res.grad_proj_weight, finite_difference(
            lambda m: hybrid_loss(v, g, LinearMap(m, proj.bias), head, y,
                                  params).loss, proj.weight)) < 1e-5

    @pytest.mark.parametrize("kernel", ["nt_xent", "siglip_loss", "hybrid_loss"])
    def test_memory_linear_in_batch_size(self, kernel):
        """A first call's traced peak, workspace included, stays below four
        ROW_BLOCK x n matrices and eight n x d ones; whole pair matrices
        would take 4 * n^2 * 8 B, three times that at this n."""
        block = moltiers.losses.ROW_BLOCK
        n, d = 3 * block + 7, 8
        rng = np.random.default_rng(18)
        v, g, proj, head, y = hybrid_inputs(rng, n, d)
        t = rand_unit(rng, n, d)
        call = {
            "nt_xent": lambda: nt_xent(v, t),
            "siglip_loss": lambda: siglip_loss(v, t),
            "hybrid_loss": lambda: hybrid_loss(v, g, proj, head, y),
        }[kernel]
        # a fresh thread has no workspace: its first call allocates one
        # inside the traced window
        results = []
        worker = threading.Thread(target=lambda: results.append(call()))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            worker.start()
            worker.join(timeout=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not worker.is_alive() and len(results) == 1
        assert peak - before < 4 * block * n * 8 + 8 * n * d * 8


class TestRanksAndCorrelation:
    def test_rank_ties_average(self):
        ranks = rank_average(np.array([1.0, 2.0, 2.0, 3.0]))
        assert list(ranks) == [1.0, 2.5, 2.5, 4.0]
        # each NaN ranks alone, after every number; -0.0 ties with 0.0
        nan = float("nan")
        ranks = rank_average(np.array([nan, 0.0, -0.0, nan, -1.0]))
        assert list(ranks) == [4.0, 2.5, 2.5, 5.0, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, float("nan"),
                                   float("inf"), -float("inf")]),
                  st.floats(allow_nan=True)),
        max_size=60,
    ))
    def test_rank_average_matches_reference_loop(self, values):
        values = np.array(values, dtype=np.float64)
        assert (rank_average(values).tobytes()
                == reference_rank_average(values).tobytes())

    def test_five_point_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [1.0, 3.0, 2.0, 4.0, 5.0]  # one swapped pair
        assert spearman(np.array(x), np.array(y)) == pytest.approx(
            brute_spearman(x, y), abs=1e-12
        )
        assert pearson(np.array(x), np.array(y)) == pytest.approx(
            brute_pearson(x, y), abs=1e-12
        )

    def test_tied_data_oracle(self):
        x = [1.0, 1.0, 2.0, 3.0, 3.0]
        y = [2.0, 1.0, 1.0, 3.0, 3.0]
        assert spearman(np.array(x), np.array(y)) == pytest.approx(
            brute_spearman(x, y), abs=1e-12
        )

    def test_identical_embeddings(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 6))
        rho, r = pairwise_distance_correlation(a, a.copy(), 200, seed=3)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rotation(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(30, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rho, r = pairwise_distance_correlation(a, a @ q, 200, seed=4)
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance_of_rho(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(25, 4))
        b = rng.normal(size=(25, 4))
        rho1, _ = pairwise_distance_correlation(a, b, 300, seed=5)
        rho2, _ = pairwise_distance_correlation(a * 10.0, b * 0.2, 300, seed=5)
        assert rho1 == pytest.approx(rho2, abs=1e-12)

    def test_degenerate_variance(self):
        a = np.tile(np.array([1.0, 0.0]), (5, 1))
        b = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(DegenerateVariance):
            pairwise_distance_correlation(a, b, 50, seed=6)

    def test_reproducible(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        assert pairwise_distance_correlation(a, b, 100, seed=7) == (
            pairwise_distance_correlation(a, b, 100, seed=7)
        )

    @pytest.mark.parametrize("blocks", [(1, -1), (1, 1), (3, 7)])
    def test_pair_blocks_match_one_shot_distances(self, blocks):
        n_pairs = blocks[0] * moltiers.losses.PAIR_BLOCK + blocks[1]
        rng = np.random.default_rng(n_pairs)
        a, b = rng.normal(size=(40, 7)), rng.normal(size=(40, 3))
        # the sampling and the distances of the function, in one call each
        rng = np.random.default_rng(5)
        left = rng.integers(0, 40, size=n_pairs)
        right = rng.integers(0, 40, size=n_pairs)
        clash = left == right
        while np.any(clash):
            right[clash] = rng.integers(0, 40, size=int(clash.sum()))
            clash = left == right
        da = np.linalg.norm(a[left] - a[right], axis=1)
        db = np.linalg.norm(b[left] - b[right], axis=1)
        want = (spearman(da, db), pearson(da, db))
        got = pairwise_distance_correlation(a, b, n_pairs, seed=5)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def save_embeddings(path, matrix) -> None:
    """Write ``matrix`` as ``load_embeddings`` reads it: ``.npy``, or text
    with an ``N d`` header line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, matrix)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


class TestEmbeddingIO:
    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 3))
        path = tmp_path / "emb.txt"
        save_embeddings(path, m)
        loaded = load_embeddings(path)
        assert np.array_equal(loaded, m)
        header = path.read_text().splitlines()[0]
        assert header == "5 3"

    def test_npy_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(4, 6))
        path = tmp_path / "emb.npy"
        save_embeddings(path, m)
        assert np.array_equal(load_embeddings(path), m)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ShapeMismatch):
            load_embeddings(path)
