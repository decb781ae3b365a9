import numpy as np
import pytest

from arcpd.multtest import FLOAT_COUNT, bh_procedure, bonferroni_procedure


def bh_oracle(pvals, alpha):
    """Brute force: reject H_(i) for all i up to the largest i with
    P_(i) <= i*alpha/q, evaluated literally over all i."""
    q = len(pvals)
    order = sorted(range(q), key=lambda k: pvals[k])
    best = 0
    for rank, k in enumerate(order, start=1):
        if pvals[k] <= rank * alpha / q:
            best = rank
    rejected = [False] * q
    for rank, k in enumerate(order, start=1):
        if rank <= best:
            rejected[k] = True
    return rejected


def bonferroni_oracle(pvals, alpha):
    return [len(pvals) * p <= alpha for p in pvals]


def bh_numpy(p, alpha):
    """Numpy reference: the array BH pass, whatever the count.  Returns the
    rejection flags and the adjusted values' bytes."""
    p = np.asarray(p, dtype=float)
    q = len(p)
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    scaled = ranked * q / np.arange(1, q + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    qualifying = np.flatnonzero(ranked <= np.arange(1, q + 1) * alpha / q)
    cutoff = qualifying[-1] + 1 if qualifying.size else 0
    rejected = np.empty(q, dtype=bool)
    adjusted = np.empty(q)
    rejected[order] = np.arange(q) < cutoff
    adjusted[order] = adjusted_sorted
    return tuple(rejected.tolist()), adjusted.tobytes()


def bonferroni_numpy(p, alpha):
    """Numpy reference of Bonferroni, as bh_numpy."""
    scaled = len(p) * np.asarray(p, dtype=float)
    return tuple((scaled <= alpha).tolist()), np.minimum(1.0, scaled).tobytes()


class TestBH:
    def test_example_all_rejected(self):
        out = bh_procedure([0.01, 0.04, 0.03], 0.05)
        assert out.rejected == (True, True, True)

    def test_all_ones(self):
        out = bh_procedure([1.0, 1.0, 1.0], 0.05)
        assert out.rejected == (False, False, False)

    def test_empty(self):
        out = bh_procedure([], 0.05)
        assert out.rejected == ()
        assert out.adjusted == ()

    def test_step_up_rescues_interleaved(self):
        # 0.04 alone fails its rank-2 threshold 0.033 but rank 3 qualifies
        out = bh_procedure([0.01, 0.04, 0.05], 0.05)
        assert out.rejected == (True, True, True)

    def test_adjusted_consistent_with_rejection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0, 1, size=rng.integers(1, 15))
            out = bh_procedure(p, 0.05)
            assert all(
                (adj <= 0.05) == rej for adj, rej in zip(out.adjusted, out.rejected)
            )

    def test_ties_move_together(self):
        out = bh_procedure([0.03, 0.03], 0.05)
        assert out.rejected == (True, True)

    def test_bad_pvalue(self):
        with pytest.raises(ValueError, match=r"index 1 outside \[0, 1\]: 1\.2$"):
            bh_procedure([0.5, 1.2], 0.05)
        with pytest.raises(ValueError):
            bh_procedure([-0.1], 0.05)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            bh_procedure([0.5], 0.0)

    @pytest.mark.parametrize("proc", [bh_procedure, bonferroni_procedure])
    def test_rejects_multidimensional(self, proc):
        # a (2, 2) table used to be flattened into four hypotheses
        with pytest.raises(ValueError, match=r"must be 1-D, got an array of shape \(2, 2\)"):
            proc([[0.01, 0.5], [0.2, 0.9]], 0.05)


class TestBonferroni:
    def test_example(self):
        out = bonferroni_procedure([0.01, 0.2], 0.05)
        assert out.rejected == (True, False)
        assert out.adjusted == (0.02, 0.4)

    def test_single_hypothesis_is_raw_test(self):
        assert bonferroni_procedure([0.04], 0.05).rejected == (True,)

    def test_three_marginals(self):
        out = bonferroni_procedure([0.03, 0.03, 0.03], 0.05)
        assert out.rejected == (False, False, False)

    def test_adjusted_capped_at_one(self):
        out = bonferroni_procedure([0.9, 0.9, 0.9], 0.05)
        assert out.adjusted == (1.0, 1.0, 1.0)

    def test_empty(self):
        assert bonferroni_procedure([], 0.05).rejected == ()


class TestProperties:
    def test_oracle_equivalence_and_dominance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            q = int(rng.integers(0, 21))
            p = np.round(rng.uniform(0, 1, size=q), 3)
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
            bh = bh_procedure(p, alpha)
            bf = bonferroni_procedure(p, alpha)
            assert list(bh.rejected) == bh_oracle(list(p), alpha)
            assert list(bf.rejected) == bonferroni_oracle(list(p), alpha)
            # every Bonferroni rejection is a BH rejection
            assert all(not b or h for b, h in zip(bf.rejected, bh.rejected))

    def test_monotone_in_single_pvalue(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = list(rng.uniform(0, 1, size=8))
            k = int(rng.integers(0, 8))
            lowered = list(p)
            lowered[k] = p[k] * rng.uniform(0, 1)
            for proc in (bh_procedure, bonferroni_procedure):
                base = proc(p, 0.05).rejected
                more = proc(lowered, 0.05).rejected
                assert all(not b or m for b, m in zip(base, more))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, size=10)
        perm = rng.permutation(10)
        for proc in (bh_procedure, bonferroni_procedure):
            direct = np.array(proc(p, 0.05).rejected)
            permuted = np.array(proc(p[perm], 0.05).rejected)
            assert np.array_equal(direct[perm], permuted)


class TestFloatPath:
    """BH corrects at most FLOAT_COUNT p-values in Python floats, and
    Bonferroni every count: the same flags and the same adjusted bits as
    numpy's pass, on both sides of FLOAT_COUNT and at 563 p-values (a
    T = 65536 detect's candidates)."""

    @pytest.mark.parametrize("count", [FLOAT_COUNT - 1, FLOAT_COUNT, FLOAT_COUNT + 1, 563])
    def test_matches_the_numpy_reference_bit_for_bit(self, count):
        rng = np.random.default_rng(count)
        grid = [0.0, -0.0, 1.0, 5e-324, 0.001, 0.01, 0.0125, 0.025, 0.05, 0.5]
        for trial in range(400):
            if trial % 3 == 0:  # ties, zeros and ones
                p = rng.choice(grid, size=count)
            elif trial % 3 == 1:
                p = np.round(rng.uniform(0, 0.2, size=count), 3)
            else:
                p = rng.uniform(0, 1, size=count) ** 6
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.5]))
            for proc, reference in ((bh_procedure, bh_numpy), (bonferroni_procedure, bonferroni_numpy)):
                out = proc(p, alpha)
                assert (out.rejected, np.array(out.adjusted).tobytes()) == reference(p, alpha)
                assert all(type(v) is bool for v in out.rejected)
                assert all(type(v) is float for v in out.adjusted)
                assert proc(p.tolist(), alpha) == out

    def test_minimum_keeps_numpys_zero_sign(self):
        # np.minimum gives its second argument on a tie: -0.0 then 0.0 as the
        # running minimum from the end reads 0.0
        for p in ([0.0, -0.0], [-0.0, 0.0], [-0.0], [-0.0, 0.0, -0.0]):
            adjusted = np.array(bh_procedure(p, 0.05).adjusted)
            assert adjusted.tobytes() == bh_numpy(p, 0.05)[1]
            assert np.array(bonferroni_procedure(p, 0.05).adjusted).tobytes() == bonferroni_numpy(p, 0.05)[1]

    @pytest.mark.parametrize("count", [FLOAT_COUNT, FLOAT_COUNT + 1])
    @pytest.mark.parametrize("proc", [bh_procedure, bonferroni_procedure])
    def test_messages_are_the_same(self, proc, count):
        for bad in (1.5, -0.25, float("nan"), float("inf")):
            p = [0.5] * count
            p[count - 2] = bad
            with pytest.raises(ValueError) as exc:
                proc(p, 0.05)
            assert str(exc.value) == f"p-value at index {count - 2} outside [0, 1]: {bad!r}"
