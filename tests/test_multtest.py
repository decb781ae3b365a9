import numpy as np
import pytest

from arcpd.multtest import bh_procedure, bonferroni_procedure


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
