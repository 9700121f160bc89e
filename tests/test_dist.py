import hashlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeliand import dist
from abeliand.dist import (
    FAMILIES,
    Params,
    abelian_mean,
    abelian_pmf,
    abelian_second_moment,
    abelian_variance,
    avalanche_mean,
    avalanche_pmf,
    brute_force_moment,
    convergence_table,
    j_decomposition,
    moments,
    normalization_C,
    pmf,
    pmf_table,
    shifted_pmf,
    support,
    variance_limit,
)
from abeliand.stirling import falling_factorial
from abeliand.verify import _relative_gap

ALPHAS = [Fraction(k, 10) for k in range(1, 10)]


class TestParams:
    def test_exact_from_alpha(self):
        p = Params.exact(2, alpha="1/2")
        assert p.p == Fraction(1, 4) and p.alpha == Fraction(1, 2)
        assert p.is_exact and p.mode == "exact"

    def test_exact_from_p(self):
        p = Params.exact(4, p="0.125")
        assert p.alpha == Fraction(1, 2)

    def test_stable_mode(self):
        p = Params.stable(10, alpha=0.8)
        assert isinstance(p.p, float) and p.p == 0.08
        assert p.mode == "float"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=Fraction(1, 2)),  # p >= 1/N
            dict(p=Fraction(0)),
            dict(p=Fraction(-1, 8)),
            dict(alpha=Fraction(1)),
            dict(alpha=Fraction(3, 2)),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            Params.exact(2, **kwargs)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Params.exact(0, alpha=Fraction(1, 2))

    def test_requires_exactly_one_of_p_alpha(self):
        with pytest.raises(ValueError):
            Params.exact(2)
        with pytest.raises(ValueError):
            Params.exact(2, p=Fraction(1, 4), alpha=Fraction(1, 2))

    def test_n_equals_one_allows_up_to_one(self):
        p = Params.exact(1, p=Fraction(9, 10))
        assert p.alpha == Fraction(9, 10)


def test_normalization_values():
    assert normalization_C(Params.exact(2, p=Fraction(1, 4))) == Fraction(2, 3)
    assert normalization_C(Params.exact(1, p=Fraction(1, 3))) == Fraction(2, 3)
    near_one = normalization_C(Params.exact(5, p=Fraction(1, 10**6)))
    assert abs(float(near_one) - 1.0) < 1e-5


def test_abelian_pmf_table_n2():
    params = Params.exact(2, p=Fraction(1, 4))
    assert abelian_pmf(params, 1) == Fraction(2, 3)
    assert abelian_pmf(params, 2) == Fraction(1, 3)  # (1-2p)^(-1) branch
    with pytest.raises(ValueError):
        abelian_pmf(params, 0)
    with pytest.raises(ValueError):
        abelian_pmf(params, 3)


def test_avalanche_pmf_table_n2():
    params = Params.exact(2, p=Fraction(1, 4))
    table = [avalanche_pmf(params, b) for b in range(3)]
    assert table == [Fraction(9, 16), Fraction(1, 4), Fraction(3, 16)]
    assert sum(table) == 1


def test_avalanche_pmf_zero_exponent_at_top():
    # at b = N the (1-(b+1)p) base may be negative; the term must be 1
    params = Params.exact(2, p=Fraction(2, 5))
    assert avalanche_pmf(params, 2) == Fraction(4, 25) * 3


def test_avalanche_pmf_n1():
    params = Params.exact(1, p=Fraction(3, 10))
    assert avalanche_pmf(params, 0) == Fraction(7, 10)
    assert avalanche_pmf(params, 1) == Fraction(3, 10)


def test_shifted_pmf_is_avalanche_shift():
    params = Params.exact(2, p=Fraction(1, 4))
    assert shifted_pmf(params, 1) == Fraction(9, 16)
    assert shifted_pmf(params, 3) == Fraction(3, 16)
    assert sum(shifted_pmf(params, b) for b in range(1, 4)) == 1
    with pytest.raises(ValueError):
        shifted_pmf(params, 0)


def test_abelian_pmf_n1_is_point_mass():
    params = Params.exact(1, p=Fraction(1, 3))
    assert abelian_pmf(params, 1) == 1


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
def test_exact_tables_normalize(N, alpha):
    params = Params.exact(N, alpha=alpha)
    for family in FAMILIES:
        table = pmf_table(family, params)
        assert sum(table.probs_exact) == 1
        assert min(table.probs_exact) >= 0
        assert table.support == tuple(support(family, N))


def test_abelian_mean_values():
    assert abelian_mean(Params.exact(2, alpha=Fraction(1, 2))) == Fraction(4, 3)
    assert abelian_mean(Params.exact(1, alpha=Fraction(1, 2))) == 1
    assert abelian_mean(Params.exact(10, alpha=Fraction(1, 2))) == Fraction(20, 11)


def test_avalanche_mean_values():
    assert avalanche_mean(Params.exact(2, p=Fraction(1, 4))) == Fraction(5, 8)
    assert avalanche_mean(Params.exact(1, p=Fraction(2, 7))) == Fraction(2, 7)


def test_second_moment_values():
    assert abelian_second_moment(Params.exact(2, p=Fraction(1, 4))) == 2
    assert abelian_second_moment(Params.exact(1, p=Fraction(1, 3))) == 1
    params = Params.exact(3, p=Fraction(1, 6))
    assert abelian_second_moment(params) == brute_force_moment("abelian", params, 2)


def test_variance_values():
    m = abelian_variance(Params.exact(2, alpha=Fraction(1, 2)))
    assert m.second_moment == 2 and m.variance == Fraction(2, 9)
    assert m.mode == "exact"
    assert abelian_variance(Params.exact(1, alpha=Fraction(1, 2))).variance == 0


@pytest.mark.parametrize("N", range(1, 16))
def test_closed_forms_match_brute_force(N):
    for alpha in ALPHAS:
        params = Params.exact(N, alpha=alpha)
        assert abelian_mean(params) == brute_force_moment("abelian", params, 1)
        assert abelian_second_moment(params) == brute_force_moment("abelian", params, 2)
        assert avalanche_mean(params) == brute_force_moment("avalanche", params, 1)
        m = abelian_variance(params)
        assert m.variance == m.second_moment - m.mean**2
        assert m.variance >= 0


def test_brute_force_basics():
    params = Params.exact(2, p=Fraction(1, 4))
    assert brute_force_moment("abelian", params, 0) == 1
    assert brute_force_moment("abelian", params, 2) == 2
    assert brute_force_moment("avalanche", params, 1) == Fraction(5, 8)
    with pytest.raises(ValueError):
        brute_force_moment("abelian", Params.exact(31, alpha=Fraction(1, 2)), 1)
    with pytest.raises(ValueError):
        brute_force_moment("nonsense", params, 1)


def test_shift_identity_exact():
    # E[Y] = E[X] + 1, and the mean of Y rewrites through the (N+1)-size
    # Abelian family's first two moments
    for N in range(1, 12):
        for alpha in ALPHAS:
            p = alpha / (N + 1)
            params = Params.exact(N, p=p)
            mean_y = brute_force_moment("shifted", params, 1)
            assert mean_y == avalanche_mean(params) + 1
            up = Params.exact(N + 1, p=p)
            c_up = normalization_C(up)
            assert mean_y == (
                abelian_mean(up) - p * abelian_second_moment(up)
            ) / c_up


class TestJDecomposition:
    def test_n2(self):
        jd = j_decomposition(Params.exact(2, alpha=Fraction(1, 2)))
        assert jd.J1 == 2 and jd.J2 == -1
        assert jd.J3 == -1 and jd.J4 == 0
        assert jd.C == Fraction(2, 3)
        assert jd.second_moment == 2

    def test_n4_hand_values(self):
        jd = j_decomposition(Params.exact(4, alpha=Fraction(1, 2)))
        assert jd.J1 == 1
        assert jd.J2 == Fraction(-101, 32)
        assert jd.J3 == -4
        assert jd.J4 == Fraction(27, 32)
        assert jd.J5 == Fraction(27, 32) and jd.J6 == 0
        assert jd.second_moment == Fraction(133, 40)

    def test_matches_oracle(self):
        params = Params.exact(10, alpha=Fraction(1, 3))
        jd = j_decomposition(params)
        assert jd.C * (jd.J1 - jd.J2) == brute_force_moment("abelian", params, 2)

    @pytest.mark.parametrize("N", range(2, 16))
    def test_invariants_sweep(self, N):
        for alpha in ALPHAS:
            jd = j_decomposition(Params.exact(N, alpha=alpha))
            assert jd.J2 == jd.J3 + jd.J4
            assert jd.J4 == jd.J5 + jd.J6

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            j_decomposition(Params.exact(1, alpha=Fraction(1, 2)))
        with pytest.raises(ValueError):
            j_decomposition(Params.stable(5, alpha=0.5))


def test_variance_limit_values():
    assert variance_limit(Fraction(1, 2)) == 4
    assert variance_limit(Fraction(1, 3)) == Fraction(9, 8)
    assert variance_limit("0.1") == Fraction(1, 10) / Fraction(729, 1000)
    for bad in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            variance_limit(bad)


class TestFloatPath:
    def test_pmf_matches_exact_small(self):
        for N in (2, 10, 100):
            exact = Params.exact(N, alpha=Fraction(1, 2))
            approx = Params.stable(N, alpha=0.5)
            etab = pmf_table("abelian", exact)
            ftab = pmf_table("abelian", approx)
            for fe, fl in zip(etab.probs_exact, ftab.probs_float):
                assert fl == pytest.approx(float(fe), rel=1e-10)

    def test_float_tables_normalize(self):
        for family in FAMILIES:
            table = pmf_table(family, Params.stable(1000, alpha=0.5))
            assert abs(math.fsum(table.probs_float) - 1.0) < 1e-10
            assert len(table.probs_float) == len(table.support)

    def test_variance_matches_exact(self):
        for N in (2, 17, 200, 1000):
            ve = abelian_variance(Params.exact(N, alpha=Fraction(1, 2))).variance
            vf = abelian_variance(Params.stable(N, alpha=0.5)).variance
            assert vf == pytest.approx(float(ve), rel=1e-10)

    def test_tail_form_agrees_across_switch(self):
        # N=1001 takes the J-term tail path; exact value is the referee
        ve = abelian_variance(Params.exact(1001, alpha=Fraction(1, 2))).variance
        vf = abelian_variance(Params.stable(1001, alpha=0.5)).variance
        assert vf == pytest.approx(float(ve), rel=1e-10)

    def test_j3_closed_form_matches_exact_series(self):
        for N in (2, 3, 7, 20):
            for alpha in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
                direct = -sum(
                    alpha**i * Fraction((i + 1) * (i + 2), 2) for i in range(N - 1)
                )
                closed = dist._float_J3_closed(N, float(alpha))
                assert closed == pytest.approx(float(direct), rel=1e-12)

    def test_float_j4_matches_exact(self):
        for N in (50, 200):
            jd = j_decomposition(Params.exact(N, alpha=Fraction(1, 2)))
            approx = dist._float_J4(N, 0.5)
            assert approx == pytest.approx(float(jd.J4), rel=1e-9, abs=1e-12)

    def test_stable_high_alpha_no_overflow(self):
        v = abelian_variance(Params.stable(1000, alpha=0.9)).variance
        assert math.isfinite(v) and v > 0


class TestConvergence:
    def test_rows_sorted_and_limit_constant(self):
        rows = convergence_table(0.5, [1000, 100, 10000])
        assert [r.N for r in rows] == [100, 1000, 10000]
        assert all(r.limit == 4.0 for r in rows)
        assert all(r.error is None for r in rows)

    def test_errors_decrease(self):
        for alpha in (0.3, 0.5, 0.7):
            rows = convergence_table(alpha, [100, 1000, 10000])
            errs = [r.abs_error for r in rows]
            assert errs[0] > errs[1] > errs[2]

    def test_small_n_matches_exact(self):
        (row,) = convergence_table(0.5, [2])
        assert row.variance == pytest.approx(2 / 9, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            convergence_table(1.5, [100])
        with pytest.raises(ValueError):
            convergence_table(0.5, [])
        with pytest.raises(ValueError):
            convergence_table(0.5, [1])


def test_moments_dispatch_families():
    params = Params.exact(6, alpha=Fraction(1, 2))
    for family in FAMILIES:
        m = moments(family, params)
        assert m.mean == brute_force_moment(family, params, 1)
        assert m.variance == m.second_moment - m.mean**2
    with pytest.raises(ValueError):
        moments("nope", params)


def _falling_power_sum(n, p):
    # The series sum_{i=1..n} (n)_i p^i written term by term: the oracle
    # for the running product that the moments use.
    return sum(
        (falling_factorial(n, i) * p**i for i in range(1, n + 1)), start=Fraction(0)
    )


@pytest.mark.parametrize("N", range(1, 41))
def test_exact_series_match_term_by_term_oracle(N):
    for alpha in ALPHAS:
        params = Params.exact(N, alpha=alpha)
        p = params.p
        assert avalanche_mean(params) == _falling_power_sum(N, p)
        bracket = 1 / (1 - N * p) - 1 - _falling_power_sum(N - 1, p)
        assert abelian_second_moment(params) == normalization_C(params) / p * bracket


# float.hex of (avalanche_mean, E[Z^2], variance).  Any change to the
# series' factor order, its 1e-25 cut, or the single fsum over the whole
# second-moment bracket moves these bits.
FLOAT_PINS = {
    (1, 1e-07): (
        "0x1.ad7f29abcaf48p-24",
        "0x1.000000022a139p+0",
        "0x1.1509c80000000p-31",
    ),
    (1, 1e-05): (
        "0x1.4f8b588e368f1p-17",
        "0x1.fffffffff7a24p-1",
        "-0x1.0bb8000000000p-38",
    ),
    (1, 0.3): (
        "0x1.3333333333333p-2",
        "0x1.0000000000001p+0",
        "0x1.0000000000000p-52",
    ),
    (1, 0.5): (
        "0x1.0000000000000p-1",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
    ),
    (1, 0.99): (
        "0x1.fae147ae147aep-1",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
    ),
    (2, 1e-07): (
        "0x1.ad7f2b1414acfp-24",
        "0x1.0000028892e7bp+0",
        "0x1.b62777c000000p-25",
    ),
    (2, 1e-05): (
        "0x1.4f8bc681b5f67p-17",
        "0x1.0000fba8cc83ap+0",
        "0x1.4f8b3716c0000p-18",
    ),
    (2, 0.3): (
        "0x1.6147ae147ae14p-2",
        "0x1.8787878787879p+0",
        "0x1.29a21a930b840p-3",
    ),
    (2, 0.5): (
        "0x1.4000000000000p-1",
        "0x1.0000000000000p+1",
        "0x1.c71c71c71c720p-3",
    ),
    (2, 0.99): (
        "0x1.7ae48e8a71de6p+0",
        "0x1.f86562d9faee4p+1",
        "0x1.3e02dc63ae000p-6",
    ),
    (10, 1e-07): (
        "0x1.ad7f2c344faa4p-24",
        "0x1.0000049d48f3dp+0",
        "0x1.9830d53000000p-24",
    ),
    (10, 1e-05): (
        "0x1.4f8c1e781d3fep-17",
        "0x1.0001c4fdeccc8p+0",
        "0x1.2dfef0a100000p-17",
    ),
    (10, 0.3): (
        "0x1.9f1c7200486c1p-2",
        "0x1.3c40956c0fd4fp+1",
        "0x1.303a7e0a8f8d8p-1",
    ),
    (10, 0.5): (
        "0x1.b7bceec36ca6dp-1",
        "0x1.4876ab706f385p+2",
        "0x1.d392beaeb24d4p+0",
    ),
    (10, 0.99): (
        "0x1.c7e05548eeaa5p+1",
        "0x1.655813b6da189p+6",
        "0x1.4ac0bb2e32520p+2",
    ),
    (100, 1e-07): (
        "0x1.ad7f2c7529bd3p-24",
        "0x1.000005d40aa7dp+0",
        "0x1.40d1a91800000p-23",
    ),
    (100, 1e-05): (
        "0x1.4f8c3242ce001p-17",
        "0x1.0001f249685a7p+0",
        "0x1.4c2f95a8c0000p-17",
    ),
    (100, 0.3): (
        "0x1.b4350f900d671p-2",
        "0x1.6e77ae126eb95p+1",
        "0x1.addefdc647870p-1",
    ),
    (100, 0.5): (
        "0x1.f63bf5b685838p-1",
        "0x1.e3745d93546e9p+2",
        "0x1.d0ff5e05754aep+1",
    ),
    (100, 0.99): (
        "0x1.686f07ceeb309p+3",
        "0x1.192626f27f63bp+12",
        "0x1.ed4c872e25076p+10",
    ),
    (1000, 1e-07): (
        "0x1.ad7f2c7ba5f26p-24",
        "0x1.00000d7b900f7p+0",
        "0x1.442db35400000p-21",
    ),
    (1000, 1e-05): (
        "0x1.4f8c343d79884p-17",
        "0x1.0001f6c2664e7p+0",
        "0x1.4f175591c0000p-17",
    ),
    (1000, 0.3): (
        "0x1.b696bdb6ee8c3p-2",
        "0x1.747e6fa263dbap+1",
        "0x1.bdf8fff8e4828p-1",
    ),
    (1000, 0.5): (
        "0x1.fefb27f5ba767p-1",
        "0x1.fcf3a965794dcp+2",
        "0x1.faed1320a50e4p+1",
    ),
    (1000, 0.99): (
        "0x1.ef2ff24640b19p+4",
        "0x1.ed93c7ae4d17cp+15",
        "0x1.ace4c2c13b0d8p+15",
    ),
}


@pytest.mark.parametrize(("N", "alpha"), list(FLOAT_PINS))
def test_float_moments_bit_identical(N, alpha):
    params = Params.stable(N, alpha=alpha)
    m = abelian_variance(params)
    got = (avalanche_mean(params).hex(), m.second_moment.hex(), m.variance.hex())
    assert got == FLOAT_PINS[N, alpha]


# sha256 of ",".join(q.hex() for q in probs_float) for each float table.
# Every term expression, its addition order and the exp of each log term
# show up in these bits.  N = 2^16 - 1 .. 2^16 + 1 put the end of the
# support on either side of the table kernel's block boundary.  The heavy
# tail at N = 10^4, alpha = 0.999999 keeps terms such as b = 9170 far from
# underflow, where numpy's log rounds differently from math.log.
TABLE_PINS = {
    ("abelian", 1, 1e-07):
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ("abelian", 1, 0.5):
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ("abelian", 1, 0.99):
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ("abelian", 2, 1e-07):
        "01f2e58fd46958dcbafb8bdf6601b38f3d6a15ae7321c02958e45beb13f97ec3",
    ("abelian", 2, 0.5):
        "ec735362e586136b8de8741958ec98e95285520487b22a3169b09b6808a951d0",
    ("abelian", 2, 0.99):
        "dca9bf3dbf34126f9bc0067bf22146cc674074a44e0d0b7bbd80fc1b9b1c1f9f",
    ("abelian", 10, 1e-07):
        "3ae5e0963eec02bc1e2460f4d6353e8148ea784a01f708a2cbb524ecd947fde5",
    ("abelian", 10, 0.5):
        "1a9fabe8138a7f9557c22a5428da7cf9f0522199c0277264b3d77c7bed563bba",
    ("abelian", 10, 0.99):
        "422f42038d59d7c88acd844e1099bbaf7bde5c431f3eff9aa54f86b57e5e59d5",
    ("abelian", 1000, 1e-07):
        "04319cc13175ae861cb96106b797b3c983c9b43129d96f6d2e0a25c1c9347646",
    ("abelian", 1000, 0.5):
        "3774e8567fb528e5557196b0cfd6f7f1a9966a9d34363853db3660c3b3aae3f5",
    ("abelian", 1000, 0.99):
        "fbfd98af956aff93afcd03806df87d7c87555fd9e0c788148e820c0588f182c9",
    ("abelian", 65535, 0.5):
        "262709a5922619dd75dd4644b17e8fd82b549fd6e071f9181d8f282dc2af7a62",
    ("abelian", 65536, 0.5):
        "2c3cc35baba7c8a21f6d28429140a6cef71ab1807b79adcbaf1a2f043408e0b9",
    ("abelian", 65537, 0.5):
        "c9f38c30c9707195066eb323a259da2c48dd2ff4fcb18f4ea8766cf2138305c3",
    ("abelian", 10000, 0.999999):
        "fd333403dd8c1837f14713506ee10d736965e9a25998aac26c2ccc3276509697",
    ("avalanche", 1, 1e-07):
        "0c9d3701fe9c733a8702e589da689b57f57e7b93691f3e050b4573dd6cfb8dae",
    ("avalanche", 1, 0.5):
        "19210efe34eaa7fe2b696960cb5d41bb23c8edc7bc8a83164626808b416a5237",
    ("avalanche", 1, 0.99):
        "c41ae0f47884b5d41306f10deef68bf289b9424340161318fd09ad04c371b7ae",
    ("avalanche", 2, 1e-07):
        "8f4f020ad63330bb02ff2531c940ee6bf0a8f31790ac89a184889381962bec96",
    ("avalanche", 2, 0.5):
        "8db5c391901178fd954aac43bf9426baebd40ed8623dce3c43b14158a4bc9dd2",
    ("avalanche", 2, 0.99):
        "344d2e74f3a26fe9366f80e5d1dc7f069ad9c0d2e3754ed4fbd5f3f3eab2cab4",
    ("avalanche", 10, 1e-07):
        "7d868ddd747ef93adbd87726052b1c33b4e5796560946be798e9e7abb1dd6e83",
    ("avalanche", 10, 0.5):
        "345aecffefc722ef70e6b6fa9549dcda88d108f703a9f10bbcd7f8d3a580fe44",
    ("avalanche", 10, 0.99):
        "8026fa4e6a8db7c9dedd3e381c217b007ff127fa6cff3dbda5e51469ef891d05",
    ("avalanche", 1000, 1e-07):
        "5eb7e6d2fb8934bcd18bce7000a3cd054438323065971780239c19fae7d33cf3",
    ("avalanche", 1000, 0.5):
        "54defba2894d6f5aeb22000a7d64334b0ef3f3e37e437b926951f972ddcbd7dc",
    ("avalanche", 1000, 0.99):
        "a2b59f400899da9bcf2406c794e32cf2b878f09bb4e3fd84506bebf0f37dcb2b",
    ("avalanche", 65535, 0.5):
        "09ad3853ebc18af91e8ecd5907f2e0c8c3f25956937f179006fb5073678ea3f1",
    ("avalanche", 65536, 0.5):
        "71dd4d53bf4962b91cbb4a7a1757ddf8d45dcd619532b565d2ce6b3ed7393933",
    ("avalanche", 65537, 0.5):
        "eba30309ee767808a042022af438fd40c2bee450e5a1175eb6b98c980ad8cb08",
    ("avalanche", 10000, 0.999999):
        "fcd023806dd7a097a3e3061b27fde42ef9b62eca1f71a905902e963f34d400f1",
    ("shifted", 1, 1e-07):
        "0c9d3701fe9c733a8702e589da689b57f57e7b93691f3e050b4573dd6cfb8dae",
    ("shifted", 1, 0.5):
        "19210efe34eaa7fe2b696960cb5d41bb23c8edc7bc8a83164626808b416a5237",
    ("shifted", 1, 0.99):
        "c41ae0f47884b5d41306f10deef68bf289b9424340161318fd09ad04c371b7ae",
    ("shifted", 2, 1e-07):
        "8f4f020ad63330bb02ff2531c940ee6bf0a8f31790ac89a184889381962bec96",
    ("shifted", 2, 0.5):
        "8db5c391901178fd954aac43bf9426baebd40ed8623dce3c43b14158a4bc9dd2",
    ("shifted", 2, 0.99):
        "344d2e74f3a26fe9366f80e5d1dc7f069ad9c0d2e3754ed4fbd5f3f3eab2cab4",
    ("shifted", 10, 1e-07):
        "7d868ddd747ef93adbd87726052b1c33b4e5796560946be798e9e7abb1dd6e83",
    ("shifted", 10, 0.5):
        "345aecffefc722ef70e6b6fa9549dcda88d108f703a9f10bbcd7f8d3a580fe44",
    ("shifted", 10, 0.99):
        "8026fa4e6a8db7c9dedd3e381c217b007ff127fa6cff3dbda5e51469ef891d05",
    ("shifted", 1000, 1e-07):
        "5eb7e6d2fb8934bcd18bce7000a3cd054438323065971780239c19fae7d33cf3",
    ("shifted", 1000, 0.5):
        "54defba2894d6f5aeb22000a7d64334b0ef3f3e37e437b926951f972ddcbd7dc",
    ("shifted", 1000, 0.99):
        "a2b59f400899da9bcf2406c794e32cf2b878f09bb4e3fd84506bebf0f37dcb2b",
    ("shifted", 65535, 0.5):
        "09ad3853ebc18af91e8ecd5907f2e0c8c3f25956937f179006fb5073678ea3f1",
    ("shifted", 65536, 0.5):
        "71dd4d53bf4962b91cbb4a7a1757ddf8d45dcd619532b565d2ce6b3ed7393933",
    ("shifted", 65537, 0.5):
        "eba30309ee767808a042022af438fd40c2bee450e5a1175eb6b98c980ad8cb08",
    ("shifted", 10000, 0.999999):
        "fcd023806dd7a097a3e3061b27fde42ef9b62eca1f71a905902e963f34d400f1",
}


@pytest.mark.parametrize(("family", "N", "alpha"), list(TABLE_PINS))
def test_float_tables_bit_identical(family, N, alpha):
    table = pmf_table(family, Params.stable(N, alpha=alpha))
    text = ",".join(q.hex() for q in table.probs_float)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_PINS[family, N, alpha]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "params",
    [
        Params.exact(1, alpha=Fraction(1, 2)),
        Params.exact(7, alpha=Fraction(9, 10)),
        Params.stable(1, alpha=0.5),
        Params.stable(50, alpha=0.3),
    ],
    ids=["exact-1", "exact-7", "float-1", "float-50"],
)
def test_scalar_pmf_matches_table_and_support(family, params):
    table = pmf_table(family, params)
    probs = table.probs_exact if params.is_exact else table.probs_float
    assert len(probs) == len(table.support)
    for b, q in zip(table.support, probs):
        assert pmf(family, params, b) == q
    sup = support(family, params.N)
    for b in (sup.start - 1, sup.stop):
        with pytest.raises(ValueError):
            pmf(family, params, b)


# The scalar log terms the float tables were first built from, one Python
# float operation at a time.  The table kernel must reproduce them bit for bit.
def _reference_log_binom(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _reference_log_term(family, params, b):
    N, p = params.N, params.p
    if family == "abelian":
        log_C = math.log1p(-N * p) - math.log1p(-(N - 1) * p)
        return (
            log_C
            + _reference_log_binom(N - 1, b - 1)
            + (b - 1) * math.log(p)
            + (N - b - 1) * math.log1p(-b * p)
            + (b - 2) * math.log(b)
        )
    if family == "shifted":
        b -= 1
    lp = _reference_log_binom(N, b) + b * math.log(p) + (b - 1) * math.log(b + 1)
    if b < N:
        lp += (N - b) * math.log1p(-(b + 1) * p)
    return lp


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    N=st.integers(1, 300),
    log_alpha=st.floats(math.log(1e-7), math.log(0.999999)),
)
def test_float_table_matches_reference_terms(family, N, log_alpha):
    params = Params.stable(N, alpha=min(math.exp(log_alpha), 0.999999))
    expected = [
        math.exp(_reference_log_term(family, params, b)).hex()
        for b in support(family, N)
    ]
    # 64-point blocks: tables with N > 63 are built in several blocks
    with mock.patch.object(dist, "_BLOCK", 64):
        table = pmf_table(family, params)
    assert [q.hex() for q in table.probs_float] == expected
    assert [pmf(family, params, b).hex() for b in table.support] == expected


# Stated accuracy of float tables for N <= 60 and 1e-7 <= alpha <= 0.999999,
# against the exact table at the same alpha, with suite_float's rule that
# exact values at or below 1e-280 only need a float at or below 1e-280.
# Measured over ~98k tables: 3.0e-13 at most for alpha < 0.5, 1.1e-10 at
# alpha = 0.999999.  The 1/(1 - alpha) part is the rounding of p = alpha/N
# seen through 1 - N*p, which is about 1 - alpha.
def float_pmf_bound(alpha):
    return 1e-12 + 2.5e-16 / (1 - alpha)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    N=st.integers(1, 60),
    log_alpha=st.floats(math.log(1e-7), math.log(0.999999)),
)
def test_float_table_accuracy(family, N, log_alpha):
    alpha = min(math.exp(log_alpha), 0.999999)
    floats = pmf_table(family, Params.stable(N, alpha=alpha)).probs_float
    exact = pmf_table(family, Params.exact(N, alpha=Fraction(alpha))).probs_exact
    worst = max(_relative_gap(f, e) for f, e in zip(floats, exact))
    assert worst <= float_pmf_bound(alpha)


def test_float_table_is_read_only():
    table = pmf_table("abelian", Params.stable(10, alpha=0.5))
    with pytest.raises(ValueError):
        table.probs_float[0] = 0.0
