import hashlib

import numpy as np
import pytest

from arcpd.simulate import (
    BURN_IN,
    ArmaSpec,
    PiecewiseSpec,
    builtin_model,
    builtin_model_names,
    _rng,
    replicate_seed,
    simulate_piecewise,
)


def per_sample_reference(spec, seed):
    """The simulator's earlier loop: one numpy-scalar step per sample."""
    total = BURN_IN + spec.total_length
    seg_of = np.zeros(total, dtype=np.intp)
    start = BURN_IN
    for idx, (_, end) in enumerate(spec.segments):
        seg_of[start : BURN_IN + end] = idx
        start = BURN_IN + end
    sds = np.array([arma.noise_sd for arma, _ in spec.segments])
    eps = sds[seg_of] * _rng(seed).standard_normal(total)
    x = np.zeros(total)
    for t in range(total):
        arma = spec.segments[seg_of[t]][0]
        acc = eps[t]
        for j, a in enumerate(arma.ar, start=1):
            if t - j >= 0:
                acc += a * x[t - j]
        for k, b in enumerate(arma.ma, start=1):
            if t - k >= 0:
                acc += b * eps[t - k]
        x[t] = acc
    return x[BURN_IN:]


# sha256 of simulate_piecewise(spec, replicate_seed(0, r)).tobytes(), recorded
# from the per-sample loop above: the bench's 12 default models at r = 0, 1.
SERIES_SHA256 = {
    ("A:-0.7", 0): "ecc7eb06cdd6c8173b7753e6a5b7af611420f8b842463ba2944c7c4ed4c36a80",
    ("A:-0.7", 1): "bbd4359b037010831fe8684b86a065667c85f64c3e109c2f9746999d21e74f78",
    ("A:-0.1", 0): "e4b6a912d2f1763f2683b0bc8502b891ebac10d0e648019f884873ff21c57b99",
    ("A:-0.1", 1): "487833a773345016f98b5149982a4b1e609a346d94c935d58382ba7444381acb",
    ("A:0.4", 0): "37106c49910aae7cc32091de06162cd04940a7a25224404c7964274fd44bb982",
    ("A:0.4", 1): "2e191a9fb3c7c155e4a07f50a320c6c65f4fff2243b524261a854cdfc606f9cd",
    ("A:0.7", 0): "48df2b7e73634d2f1b3fe4ff2edfad4c3f8832c1384bae7625ac91067c9c9859",
    ("A:0.7", 1): "24b5fe2e6b8536349cf99c8b962d6bba8c1375082330a702895363d482a7f6fb",
    ("B", 0): "eb990ff65015e2fdca70a1db53879728cb8384fb3ec43deca9eb7380116cfc6e",
    ("B", 1): "b07e70dc39aace7957ba7cdfe7e03d6cdc0a5414e5b9878056f79775ceb0b44a",
    ("C", 0): "612b88fe0a818e82b7bfbffbef78467ea4c0b9d2075d927d78acef535219042d",
    ("C", 1): "696a3ef23528878d789352630c28454fcabfd2575e89574539312e239d5345f8",
    ("D", 0): "d6c6eb4c3020ff49c1c8916aef15a280b62e761698ea57a3e6d9c508ea80c141",
    ("D", 1): "d18e6c12230aaf6172e0dec4707ef61ccf446d19e2e8df7e8c5b03da5351c04a",
    ("E", 0): "9fbf07d7138dee202a3c3f11d33c46a14359d0cb9a76c4f09a27d2734e7d7b86",
    ("E", 1): "964aefdeb647da2538f67551b641d48ce0ee454f400aa632d3b189da71a1125e",
    ("F", 0): "daf22536787a96eaca1c5051e8b5bf0d5a3a96f11ad8d42641175d3747298e54",
    ("F", 1): "857156d73e1037f858231ce37437abed9dabfc75c87960c0baf784d4878525cb",
    ("G", 0): "582031e70dc74f6509307ba2e5b33d4f3629c74399193ddd2f2e6c1baccb63a3",
    ("G", 1): "0fd959d937214a33987741c642f0b4ff6c4a14d6b7498f3118f1ca90ad965b47",
    ("H", 0): "8e538d5e9f0f928876fc4c4cf7abe733e629891646dbca65237eaada43d51a3f",
    ("H", 1): "863d5dc32d24eba99dc132a0d317f0b0996ac73523b44e378be2c4bfa3388ce3",
    ("I", 0): "36c02d5ccc1b8d6dd9bc808ee81e520d99c229829ffe08cf19d029245d67a925",
    ("I", 1): "d3f4a14b1219371bdaa295d2729ee4454028df824e4e277581bf1c9277fbab28",
}

# A zero-noise AR(-0.8) start (signed zeros: 11 of its 30 values are -0.0),
# an ARMA(2, 1) segment, a zero-noise AR(1) decay and an ARMA(1, 3) segment.
MIXED_SPEC = PiecewiseSpec((
    (ArmaSpec(ar=(-0.8,), noise_sd=0.0), 30),
    (ArmaSpec(ar=(0.5, -0.25), ma=(0.4,)), 90),
    (ArmaSpec(ar=(0.9,), noise_sd=0.0), 120),
    (ArmaSpec(ar=(0.2,), ma=(0.6, -0.3, 0.1), noise_sd=1.5), 200),
))
MIXED_SHA256 = "abdba1d501602646f6f477711d45ba1cc6b8379273f1d40af952d2b186aa5008"


def sha256(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


def test_zero_noise_zero_state_gives_zero_series():
    spec = PiecewiseSpec(((ArmaSpec(ar=(0.8,), noise_sd=0.0), 100),))
    assert np.array_equal(simulate_piecewise(spec, 42), np.zeros(100))


def test_determinism_bit_identical():
    spec = builtin_model("H")
    a = simulate_piecewise(spec, 1234)
    b = simulate_piecewise(spec, 1234)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("model,replicate", sorted(SERIES_SHA256))
def test_bench_series_bytes_are_pinned(model, replicate):
    x = simulate_piecewise(builtin_model(model), replicate_seed(0, replicate))
    assert sha256(x) == SERIES_SHA256[model, replicate]


def test_mixed_spec_bytes_are_pinned():
    x = simulate_piecewise(MIXED_SPEC, replicate_seed(0, 0))
    assert np.signbit(x[:30]).sum() == 11 and not x[:30].any()
    assert sha256(x) == MIXED_SHA256


@pytest.mark.parametrize("seed", range(40))
def test_matches_per_sample_reference_bytes(seed):
    # random AR/MA orders 0-3, 1-4 segments, some with noise_sd 0
    rng = np.random.default_rng(seed)
    segments, end = [], 0
    for _ in range(rng.integers(1, 5)):
        end += int(rng.integers(1, 60))
        arma = ArmaSpec(
            ar=tuple(rng.uniform(-0.6, 0.6, rng.integers(0, 4)).tolist()),
            ma=tuple(rng.uniform(-0.9, 0.9, rng.integers(0, 4)).tolist()),
            noise_sd=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
        )
        segments.append((arma, end))
    spec = PiecewiseSpec(tuple(segments))
    got = simulate_piecewise(spec, seed)
    assert got.tobytes() == per_sample_reference(spec, seed).tobytes()


@pytest.mark.parametrize("replicates", [1, 2, 7, 40])
@pytest.mark.parametrize("name", [*builtin_model_names(), "mixed"])
def test_seed_list_rows_are_the_single_seed_series(name, replicates):
    # The row recursion does each seed's float steps elementwise, so every
    # row is its seed's series byte for byte, signed zeros included.
    spec = MIXED_SPEC if name == "mixed" else builtin_model(name)
    seeds = [replicate_seed(0, r) for r in range(replicates)]
    rows = simulate_piecewise(spec, seeds)
    assert rows.shape == (replicates, spec.total_length) and rows.flags.c_contiguous
    for row, seed in zip(rows, seeds):
        assert row.tobytes() == simulate_piecewise(spec, seed).tobytes()


def test_int_list_is_one_entropy():
    # numpy reads a list of ints as one entropy, so it stays one series.
    x = simulate_piecewise(MIXED_SPEC, [1, 2])
    assert x.shape == (MIXED_SPEC.total_length,)
    assert x.tobytes() == simulate_piecewise(MIXED_SPEC, np.random.SeedSequence([1, 2])).tobytes()
    assert sha256(x) == "611f625cb27d24c3119eff40a5203bf3082e28acae850b0430b3c3c41b559a5a"


def test_bad_seed_lists_are_rejected():
    with pytest.raises(ValueError, match="need at least one seed; got an empty list"):
        simulate_piecewise(MIXED_SPEC, [])
    with pytest.raises(ValueError, match="either SeedSequences .* or ints"):
        simulate_piecewise(MIXED_SPEC, [replicate_seed(0, 0), 1])


def test_distinct_seeds_differ():
    spec = builtin_model("B")
    assert not np.array_equal(simulate_piecewise(spec, 1), simulate_piecewise(spec, 2))


def test_replicate_streams_differ_and_are_stable():
    spec = builtin_model("I")
    x0 = simulate_piecewise(spec, replicate_seed(9, 0))
    x1 = simulate_piecewise(spec, replicate_seed(9, 1))
    assert not np.array_equal(x0, x1)
    assert np.array_equal(x0, simulate_piecewise(spec, replicate_seed(9, 0)))


def test_length_matches_spec():
    for name in builtin_model_names():
        spec = builtin_model(name)
        assert len(simulate_piecewise(spec, 0)) == spec.total_length


def test_ar1_long_run_variance():
    b = 0.6
    spec = PiecewiseSpec(((ArmaSpec(ar=(b,)), 50_000),))
    x = simulate_piecewise(spec, 5)
    target = 1.0 / (1.0 - b * b)
    assert abs(np.var(x) - target) / target < 0.10


def test_model_i_first_segment_variance():
    # MA(1) with theta = 0.8 and unit noise has variance 1 + 0.8^2
    x = simulate_piecewise(builtin_model("I"), 0)
    assert abs(np.var(x[:128]) - 1.64) / 1.64 < 0.25


def test_noise_scale_applies_per_segment():
    spec = PiecewiseSpec(
        ((ArmaSpec(noise_sd=1.0), 2000), (ArmaSpec(noise_sd=3.0), 4000))
    )
    x = simulate_piecewise(spec, 8)
    assert np.var(x[2000:]) > 4.0 * np.var(x[:2000])


class TestBuiltinSpecs:
    def test_model_b(self):
        spec = builtin_model("B")
        assert spec.total_length == 1024
        assert spec.true_cps == (512, 768)
        (s1, e1), (s2, e2), (s3, e3) = spec.segments
        assert (e1, e2, e3) == (512, 768, 1024)
        assert s1.ar == (0.9,)
        assert s2.ar == (1.69, -0.81)
        assert s3.ar == (1.32, -0.81)

    def test_model_c_uses_equation_boundaries(self):
        spec = builtin_model("C")
        assert spec.true_cps == (400, 612)
        assert [a.ar for a, _ in spec.segments] == [(0.4,), (-0.6,), (0.5,)]

    def test_model_d(self):
        spec = builtin_model("D")
        assert spec.true_cps == (50,)

    def test_models_e_f_noise_sds(self):
        for name in ("E", "F"):
            spec = builtin_model(name)
            assert spec.true_cps == (400, 750)
            assert [a.noise_sd for a, _ in spec.segments] == [1.0, 1.5, 1.0]

    def test_model_g(self):
        spec = builtin_model("G")
        assert spec.true_cps == (125, 532, 704)
        assert [a.ar for a, _ in spec.segments] == [(0.7,), (0.3,), (0.9,), (0.1,)]

    def test_model_h_arma(self):
        spec = builtin_model("H")
        assert spec.true_cps == (125, 532, 704)
        assert [a.ma for a, _ in spec.segments] == [(0.6,), (0.3,), (), (-0.5,)]

    def test_model_i(self):
        spec = builtin_model("I")
        assert spec.total_length == 256
        assert spec.true_cps == (128,)
        assert [a.ar for a, _ in spec.segments] == [(), ()]
        assert [a.ma for a, _ in spec.segments] == [(0.8,), (1.68, -0.81)]

    def test_model_a_variants(self):
        for beta in (-0.7, -0.1, 0.4, 0.7):
            spec = builtin_model(f"A:{beta}")
            assert spec.true_cps == ()
            assert spec.total_length == 1024
            assert spec.segments[0][0].ar == (beta,)

    def test_model_a_inline_syntax(self):
        assert builtin_model(" a:0.40 ") == builtin_model("A:0.4")
        with pytest.raises(ValueError, match="bad model A coefficient 'x'"):
            builtin_model("A:x")

    def test_model_a_requires_known_coefficient(self):
        with pytest.raises(ValueError):
            builtin_model("A:0.5")
        with pytest.raises(ValueError, match="model A needs a coefficient"):
            builtin_model("A")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            builtin_model("Z")
        with pytest.raises(ValueError, match="only model A takes a parameter"):
            builtin_model("B:0.4")


class TestSpecValidation:
    def test_segment_ends_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseSpec(((ArmaSpec(), 10), (ArmaSpec(), 10)))

    def test_noise_sd_nonnegative(self):
        with pytest.raises(ValueError):
            ArmaSpec(noise_sd=-1.0)

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^ARMA coefficients must be finite$"):
            ArmaSpec(ar=(np.inf,))

    def test_needs_a_segment(self):
        with pytest.raises(ValueError, match=r"^need at least one segment$"):
            PiecewiseSpec(())

    def test_state_carries_across_boundary(self):
        # second segment is pure noise with sd 0; with AR carry-over from the
        # first segment the first post-boundary value must equal a * x[k-1]
        spec = PiecewiseSpec(
            ((ArmaSpec(ar=(0.5,)), 50), (ArmaSpec(ar=(0.5,), noise_sd=0.0), 60))
        )
        x = simulate_piecewise(spec, 3)
        assert x[50] == pytest.approx(0.5 * x[49], rel=1e-12)
