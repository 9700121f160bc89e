"""Exact-mode tables and series, pinned to the Fractions they must produce."""

import hashlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abeliand.dist import (
    _TERMS,
    FAMILIES,
    Params,
    PmfTable,
    _mean_bracket,
    _tail_falls,
    abelian_second_moment,
    avalanche_mean,
    brute_force_moment,
    j_decomposition,
    moments,
    normalization_C,
    pmf,
    pmf_table,
    rounded_avalanche_mean,
    support,
    table_moment,
)


def pin_ps(N):
    """The p of each exact pin at N.

    ``half`` is alpha = 1/2; the denominator of ``shared`` is (N-1)N(N+1),
    so it shares primes with every factor d - k*a that the kernels strip;
    ``bigprime`` puts the prime 1000003 in the denominator.
    """
    m = max(N - 1, 1)
    return {
        "half": Fraction(1, 2 * N),
        "shared": Fraction(m * (N + 1) - 1, m * N * (N + 1)),
        "bigprime": Fraction(7, N * 1000003),
    }


def hex_text(values):
    """Fractions as comma-joined ``num:x/den:x``; hex has no 4300-digit limit."""
    return ",".join(f"{q.numerator:x}/{q.denominator:x}" for q in values)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of hex_text(probs_exact) for each exact table.
EXACT_TABLE_PINS = {
    ("abelian", 1, "half"):
        "253d950f11ebdbeb4c2d54c57803deb69869b832a2e03010620d462a85d15290",
    ("abelian", 1, "shared"):
        "253d950f11ebdbeb4c2d54c57803deb69869b832a2e03010620d462a85d15290",
    ("abelian", 1, "bigprime"):
        "253d950f11ebdbeb4c2d54c57803deb69869b832a2e03010620d462a85d15290",
    ("abelian", 2, "half"):
        "ee16112adc4bfed45e9225a3f782ae6e480dd7fd4a096b5e3ce9bf0cfc02aa8a",
    ("abelian", 2, "shared"):
        "b8923f2012a021ee218c93f96f6d4520b372d26fbd6ed110194d3d987f624e11",
    ("abelian", 2, "bigprime"):
        "2929ece028bf04e159f57999deee50c2385bf839991b6c65aa7027f14baba761",
    ("abelian", 3, "half"):
        "1247b5ffb83dd0017beef55bcdd6ffa1311f19857081f8fef47ba31865d3d75c",
    ("abelian", 3, "shared"):
        "4e7c7f31e1857991e7719089b0e4325f948c279b2e9f0536408c193c56cdbfa0",
    ("abelian", 3, "bigprime"):
        "9b15aecb5fcc3d96b95f4a591b717cbccb145751c9a81dde4ea66a4a1f16ea39",
    ("abelian", 60, "half"):
        "b1eafb03ca7b611d61df3ecc6b94f68ce7b0ae632739c6132a026763cc1b56d3",
    ("abelian", 60, "shared"):
        "978fcf9752dbddf782abc733194e3645957224362608ff93fce63abbdc722b1b",
    ("abelian", 60, "bigprime"):
        "9ebbcf658511069a45c7fa027bc4b6da064ae71607a93a6ae26172f424e9a137",
    ("abelian", 1000, "half"):
        "6652a93fc756fa004a384fc3199b858795338091c8324b57db844c87fd9a4e75",
    ("abelian", 1000, "shared"):
        "cce1a2d9e40a9c12f6d627e77e88eaac260d02cc549ef7c96f334ee9f2169ea2",
    ("abelian", 1000, "bigprime"):
        "0f9ddee39b933a26f7a60a2bf6e5bcca5fea84750b606a3ff2b66e34eb736957",
    ("avalanche", 1, "half"):
        "b8923f2012a021ee218c93f96f6d4520b372d26fbd6ed110194d3d987f624e11",
    ("avalanche", 1, "shared"):
        "b8923f2012a021ee218c93f96f6d4520b372d26fbd6ed110194d3d987f624e11",
    ("avalanche", 1, "bigprime"):
        "ee0484c73f618170797b8b6380f855c79f72ca770f12dd06588a5826f8db5b42",
    ("avalanche", 2, "half"):
        "b4b6c770fdaf1a16f1c4dd2ab75851800b124f3171f177d2acaee4da20bb92bc",
    ("avalanche", 2, "shared"):
        "3b4f2ddc7db5c286af3076c1e035ea5251ec2f4ae9437192342a8d70d01a338c",
    ("avalanche", 2, "bigprime"):
        "a79ca00b8cc7c9bad950affd800edd3de515927d54e8979998efd5b0fe8fa708",
    ("avalanche", 3, "half"):
        "108838142fda4332f42f56e5d59980cf3c20349781106e1ca48caa9e415355a1",
    ("avalanche", 3, "shared"):
        "735e382add63f1b16585c27386dd7859b21521cd81a25b14040e50b629e733e6",
    ("avalanche", 3, "bigprime"):
        "ef2ec0c4df7731590458442039125ab356941279e606996dfcf36c2e0f44ccff",
    ("avalanche", 60, "half"):
        "5af1025a2f24730612bc9501e299074be98af1ccb5496a83103a96e8e54d6b81",
    ("avalanche", 60, "shared"):
        "728bc5b3a9c3602bfe40f43a6188999fb40b4d0ca47fedcb3251b83c362ef2ec",
    ("avalanche", 60, "bigprime"):
        "27af81c2edefc01dd310f184b53d9d55b371c514d0b0247bfec7b6a26368997b",
    ("avalanche", 1000, "half"):
        "3b96c383bd33c989ccdaef97b360ab32245ac96f6ea5e1c5e132c87cb8d43407",
    ("avalanche", 1000, "shared"):
        "8219c201a7a40712425ed47dac0f7f9eeea291eb4620525e0ca9694f59077a77",
    ("avalanche", 1000, "bigprime"):
        "915d781daa064a6732a2abc40d42f00a1e39a240505bf9b0d92621f16f4d64cf",
    ("shifted", 1, "half"):
        "b8923f2012a021ee218c93f96f6d4520b372d26fbd6ed110194d3d987f624e11",
    ("shifted", 1, "shared"):
        "b8923f2012a021ee218c93f96f6d4520b372d26fbd6ed110194d3d987f624e11",
    ("shifted", 1, "bigprime"):
        "ee0484c73f618170797b8b6380f855c79f72ca770f12dd06588a5826f8db5b42",
    ("shifted", 2, "half"):
        "b4b6c770fdaf1a16f1c4dd2ab75851800b124f3171f177d2acaee4da20bb92bc",
    ("shifted", 2, "shared"):
        "3b4f2ddc7db5c286af3076c1e035ea5251ec2f4ae9437192342a8d70d01a338c",
    ("shifted", 2, "bigprime"):
        "a79ca00b8cc7c9bad950affd800edd3de515927d54e8979998efd5b0fe8fa708",
    ("shifted", 3, "half"):
        "108838142fda4332f42f56e5d59980cf3c20349781106e1ca48caa9e415355a1",
    ("shifted", 3, "shared"):
        "735e382add63f1b16585c27386dd7859b21521cd81a25b14040e50b629e733e6",
    ("shifted", 3, "bigprime"):
        "ef2ec0c4df7731590458442039125ab356941279e606996dfcf36c2e0f44ccff",
    ("shifted", 60, "half"):
        "5af1025a2f24730612bc9501e299074be98af1ccb5496a83103a96e8e54d6b81",
    ("shifted", 60, "shared"):
        "728bc5b3a9c3602bfe40f43a6188999fb40b4d0ca47fedcb3251b83c362ef2ec",
    ("shifted", 60, "bigprime"):
        "27af81c2edefc01dd310f184b53d9d55b371c514d0b0247bfec7b6a26368997b",
    ("shifted", 1000, "half"):
        "3b96c383bd33c989ccdaef97b360ab32245ac96f6ea5e1c5e132c87cb8d43407",
    ("shifted", 1000, "shared"):
        "8219c201a7a40712425ed47dac0f7f9eeea291eb4620525e0ca9694f59077a77",
    ("shifted", 1000, "bigprime"):
        "915d781daa064a6732a2abc40d42f00a1e39a240505bf9b0d92621f16f4d64cf",
}


@pytest.mark.parametrize(("family", "N", "p_name"), list(EXACT_TABLE_PINS))
def test_exact_tables_pinned(family, N, p_name):
    table = pmf_table(family, Params.exact(N, p=pin_ps(N)[p_name]))
    assert sha(hex_text(table.probs_exact)) == EXACT_TABLE_PINS[family, N, p_name]


# sha256 of hex_text([avalanche_mean, abelian_second_moment]) at N = 1000.
EXACT_MOMENT_PINS = {
    "half":
        "2594749fe05ee54a27c0f44c8f264798a7681977353547e6660c1b61048cb45e",
    "shared":
        "87cdff173edf18254a3ba6357192077ef0f8dcc4c0ce1d4fac25858037c20f39",
    "bigprime":
        "96b08bf58c2a0d7ba1a0f4498ed96cb6dee2ad07319bede4009c4869892309ca",
}


@pytest.mark.parametrize("p_name", list(EXACT_MOMENT_PINS))
def test_exact_series_pinned(p_name):
    params = Params.exact(1000, p=pin_ps(1000)[p_name])
    got = [avalanche_mean(params), abelian_second_moment(params)]
    assert sha(hex_text(got)) == EXACT_MOMENT_PINS[p_name]


# sha256 of hex_text([J1, J2, J3, J4, J5, J6, C, E[Z^2]]).  J4, J5 and J6
# are 0 at N = 2; J6 is 0 at N = 3 and 4, where the split index k* is past
# the last term; at N = 8, 9 and 200 the terms split at k* < N - 2.
EXACT_J_PINS = {
    (2, "1/2"):
        "13177d68e4c16c71669f9c12e21cce70b8d187478f1bf3fdf3faadb6946938d6",
    (2, "9/10"):
        "3e713ba2f968d6cd761ee227d89f9df0f02616cec4e1dae6892b00623e6f38d8",
    (3, "1/2"):
        "61cb0add9bf994eef26c969ae7b0ca2c951c9b2f0343ae21fde534b578a8bd0e",
    (3, "9/10"):
        "94ae6215326b86f5f31a11a5567213ebdf7bdf9704201e61bfece2f9682eb162",
    (4, "1/2"):
        "f42e8c6439358c72d9d5040a1de81035948a03ec94db99612ad4fb36562fe4dd",
    (4, "9/10"):
        "4a2069a2961610b4ee6a7715dfb1fe2dc7be0863f255ad00fb320c228fdd1b62",
    (8, "1/2"):
        "046a2ce99b150f8f8a06ad66886cf8d7e46ad81e226df314c72c37a051fc30e8",
    (8, "9/10"):
        "b26a35a1ca06816ed503f6b65ee7a37a8f47705e6f6e268dfb9d8fe7ef744a9a",
    (9, "1/2"):
        "bab55a34d5dc18705c74e07982cc57e2fdb09ff579b8ea0837d493d7050bae9d",
    (9, "9/10"):
        "0403d672584b2be9430690f1c7f24533a91b179b4c304baa02fd3fadec3a45c2",
    (200, "1/2"):
        "ef89f750aeb16f6cf3ffc1af52018686d64615f099ed239d91dadb3cc5701657",
    (200, "9/10"):
        "7bedd97eae0ef4bda8e29f1001213ad5b274b1b7a6d5e4207675d6566fbb8edb",
}


@pytest.mark.parametrize(("N", "alpha"), list(EXACT_J_PINS))
def test_j_decomposition_pinned(N, alpha):
    j = j_decomposition(Params.exact(N, alpha=Fraction(alpha)))
    got = [j.J1, j.J2, j.J3, j.J4, j.J5, j.J6, j.C, j.second_moment]
    assert sha(hex_text(got)) == EXACT_J_PINS[N, alpha]


# The exact terms as they were first written: one Fraction product per
# probability.  The table kernels must give the same reduced Fractions.
def _reference_abelian_term(params):
    N, p, C = params.N, params.p, normalization_C(params)
    return lambda b: (
        C
        * math.comb(N - 1, b - 1)
        * p ** (b - 1)
        * (1 - b * p) ** (N - b - 1)
        * Fraction(b) ** (b - 2)
    )


def _reference_avalanche_term(params):
    N, p = params.N, params.p
    return lambda b: (
        math.comb(N, b)
        * p**b
        * (1 - (b + 1) * p) ** (N - b)
        * Fraction(b + 1) ** (b - 1)
    )


def reference_table(family, params):
    if family == "abelian":
        term, shift = _reference_abelian_term(params), 0
    else:
        term, shift = _reference_avalanche_term(params), int(family == "shifted")
    return [term(b - shift) for b in support(family, params.N)]


@st.composite
def exact_params(draw):
    """N and p = a/d, with d rich in the small primes that b, b+1 and the
    binomials share with it."""
    N = draw(st.integers(1, 40))
    d = N + 1
    for q in (2, 3, 5, 7):
        d *= q ** draw(st.integers(0, 4))
    d *= draw(st.sampled_from([1, 1, N, N + 1, max(N - 1, 1), 1000003]))
    a = draw(st.integers(1, (d - 1) // N))
    return Params.exact(N, p=Fraction(a, d))


@st.composite
def weight_prime_params(draw):
    """N and p = a/d where the Abelian weight's d - (N-1)a carries primes <= N.

    w = d - (N-1)a is drawn as a product of small primes, times a cofactor
    above N at times, and a is drawn coprime to w: then gcd(a, d) = 1 and
    N*a < d.  a > w/2 puts the Avalanche p in (1/(N+1), 1/N), where
    (N+1)p > 1; a = w - 1 draws it often.  N = 1 and 2 are drawn often.
    """
    N = draw(st.sampled_from([1, 2, 1, 2, 3, 4, 6, 7, 12, 13, 20, 30]))
    w = 1
    for q in (2, 3, 5, 7, 11, 13):
        if q <= max(N, 2):
            w *= q ** draw(st.integers(0, 3))
    w *= draw(st.sampled_from([1, 1, N + 1, 1000003]))
    w = max(w, 2)
    a = draw(st.sampled_from([1, w - 1]) | st.integers(1, w - 1))
    assume(math.gcd(a, w) == 1)
    return Params.exact(N, p=Fraction(a, w + (N - 1) * a))


# The Abelian weight C/(1 - bp) is folded into the generator's integers;
# its d - (N-1)a is 1001 = 7*11*13 at the first example, and d has 99 and
# 999 digits at the others.
@settings(max_examples=150, deadline=None)
@given(params=exact_params() | weight_prime_params())
@example(params=Params.exact(1000, p=Fraction(1, 2000)))
@example(params=Params.exact(200, p=Fraction("1e-99")))
@example(params=Params.exact(20, p=Fraction("1e-999")))
def test_exact_table_matches_reference_terms(params):
    """Each family's table and its scalar pmf at every b against the reference Fractions.

    The three examples take about 3 s in all, most of it the reference
    Fractions at N = 1000 and at N = 200, p = 1e-99, whose integers run to
    22000 and 66000 bits.  The shifted reference is the Avalanche one.
    """
    references = {family: reference_table(family, params) for family in ("abelian", "avalanche")}
    for family in FAMILIES:
        expected = references.get(family, references["avalanche"])
        table = pmf_table(family, params)
        scalar = [pmf(family, params, b) for b in table.support]
        for got in (table.probs_exact, scalar):
            # numerator and denominator apart: an unreduced Fraction fails here
            assert [q.numerator for q in got] == [q.numerator for q in expected]
            assert [q.denominator for q in got] == [q.denominator for q in expected]


def plain_moment(table, k):
    """sum_b b^k P(b) as a chain of Fraction additions: table_moment's reference."""
    return sum(Fraction(b) ** k * q for b, q in zip(table.support, table.probs_exact))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), params=exact_params())
def test_brute_force_moment_is_the_plain_sum(family, params):
    table = pmf_table(family, params)
    for k in range(5):
        assert brute_force_moment(family, params, k) == plain_moment(table, k)


@settings(max_examples=150, deadline=None)
@given(
    start=st.integers(0, 3),
    probs=st.lists(
        # denominators drawn from few values repeat, as a table's do
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.sampled_from([1, 2, 12, 3**40, 10**25 + 7]))
        | st.fractions(),
        min_size=1,
        max_size=30,
    ),
)
def test_table_moment_is_the_plain_sum_of_any_table(start, probs):
    table = PmfTable("avalanche", Params.exact(1, p=Fraction(1, 2)), range(start, start + len(probs)), tuple(probs), None)
    for k in range(5):
        assert table_moment(table, k) == plain_moment(table, k)


@st.composite
def strip_edge_params(draw):
    """N and p = a/d at the edges of the kernel's prime strip.

    d holds 2 up to 60 times and 3 up to 20 times; N + 1 is prime and d may
    be a multiple of it, the largest prime the kernel strips; the cofactor
    1000003, above N + 1, may sit beside them; N = 1 and 2 are drawn often.
    """
    N = draw(st.sampled_from([1, 2, 1, 2, 4, 6, 10, 12, 16, 22, 30]))
    d = 2 ** draw(st.integers(0, 60)) * 3 ** draw(st.integers(0, 20))
    d *= (N + 1) ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 1000003]))
    if d <= N:
        d *= N + 1
    top = (d - 1) // N
    a = draw(st.sampled_from([1, top]) | st.integers(1, top))
    return Params.exact(N, p=Fraction(a, d))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), params=strip_edge_params())
def test_exact_table_at_strip_edges_matches_reference_terms(family, params):
    expected = reference_table(family, params)
    got = pmf_table(family, params).probs_exact
    assert [q.numerator for q in got] == [q.numerator for q in expected]
    assert [q.denominator for q in got] == [q.denominator for q in expected]


@st.composite
def float_p_params(draw):
    """N <= 60 and a float p: alpha log-uniform from 1e-300 to 1, or p in
    (1/(N+1), 1/N), where (N+1)p >= 1; alpha at most 1 - 2^-52."""
    N = draw(st.integers(1, 60))
    if draw(st.booleans()):
        alpha = math.exp(draw(st.floats(math.log(1e-300), 0)))
    else:
        alpha = draw(st.floats(N / (N + 1), 1))
    return Params.stable(N, alpha=min(alpha, 1 - 2**-52))


# At N = 6, alpha = 3/4 the Abelian table rises from index 4 to 5, the
# last: the rule must count the weight C/(1 - bp) not to fire at index 4.
# At N = 1, p = 1/2 the Avalanche law has (N+1)p = 1, where x does not fall.
@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), params=float_p_params())
@example(family="abelian", params=Params.stable(6, alpha=0.75))
@example(family="avalanche", params=Params.stable(1, p=0.5))
def test_exact_tail_falls_where_the_stop_rule_holds(family, params):
    """pmf_table's stop rule, read at every index j0 of the float table, against the exact table at the same p."""
    *_, k = _TERMS[family]
    n = len(support(family, params.N)) - 1
    exact = pmf_table(family, Params.exact(params.N, p=Fraction(params.p))).probs_exact
    stops = [j0 for j0 in range(n + 1) if _tail_falls(n, j0, params.p, k)]
    if stops:
        tail = exact[stops[0] :]
        assert all(later < before for before, later in zip(tail, tail[1:]))


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_pmf_is_the_table_entry_at_n1000(family):
    params = Params.exact(1000, alpha=Fraction(1, 2))
    table = pmf_table(family, params)
    sup = table.support
    for i in (0, len(sup) // 2, len(sup) - 1):
        got = pmf(family, params, sup[i])
        assert (got.numerator, got.denominator) == (table.probs_exact[i].numerator, table.probs_exact[i].denominator)


@settings(max_examples=150, deadline=None)
@given(params=exact_params(), heavy=st.booleans())
def test_rounded_avalanche_mean_is_the_float_of_the_exact_mean(params, heavy):
    if heavy:  # alpha within 1/d of 1: the slowest-falling terms
        d = params.p.denominator * params.N
        params = Params.exact(params.N, p=Fraction(d - 1, d * params.N))
    assert rounded_avalanche_mean(params) == float(avalanche_mean(params))


@st.composite
def bracket_inputs(draw):
    """N <= 60, p = a/d with d up to 10^300, and a forced F of 8 to 64 bits."""
    N = draw(st.integers(1, 60))
    d = draw(st.integers(N + 1, 10 ** draw(st.integers(2, 300))))
    a = draw(st.integers(1, (d - 1) // N))
    return N, a, d, draw(st.integers(8, 64))


@settings(max_examples=150, deadline=None)
@given(inputs=bracket_inputs())
def test_mean_bracket_holds_the_exact_series(inputs):
    """The fixed-point pass's integer ends hold 2^F times the exact mean at any F."""
    N, a, d, F = inputs
    params = Params.exact(N, p=Fraction(a, d))
    lo, hi = _mean_bracket(N, a, d, F)
    assert lo <= avalanche_mean(params) * 2**F <= hi
    assert rounded_avalanche_mean(params) == float(avalanche_mean(params))


def mpmath_avalanche_mean(N, alpha):
    """float of the Avalanche mean summed in 60-digit mpmath, tail bounded."""
    with mpmath.workdps(60):
        p = mpmath.mpf(alpha.numerator) / alpha.denominator / N
        total, t = mpmath.mpf(0), mpmath.mpf(1)
        for m in range(N, 0, -1):
            t *= m * p
            total += t
            r = (m - 1) * p  # the tail after this term is below t r/(1 - r)
            if t * r / (1 - r) < total * mpmath.mpf(10) ** -55:
                break
        return float(total)


# A 54-bit dyadic midpoint at N = 1 and 2: the exact mean lies halfway
# between two floats, where no bracket decides and the exact sum rounds it.
TIE_1 = Fraction(2**53 + 1, 2**55)
TIE_2 = 2 * Fraction(67108863, 2**27)  # alpha; the mean is 13510798613676033/2^53

ROUNDED_MEAN_GRID = [
    *(
        pytest.param(N, alpha, id=f"{name}-{N}")
        for name, alpha in [
            ("half", Fraction(1, 2)),
            ("one-minus-1e-400", 1 - Fraction(1, 10**400)),
            ("1e-300", Fraction(1, 10**300)),
            ("half-D1003", Fraction(10**1002 + 1, 2 * 10**1002)),
            ("one-minus-2^-60", 1 - Fraction(1, 2**60)),
        ]
        for N in (1, 2, 3, 10, 300)
    ),
    pytest.param(1, TIE_1, id="dyadic-tie-1"),
    pytest.param(2, TIE_2, id="dyadic-tie-2"),
    pytest.param(10**6, Fraction(1, 10**300), id="1e-300-1000000"),
    pytest.param(10**6, Fraction(999999, 10**6), id="0.999999-1000000"),
]


@pytest.mark.parametrize("N, alpha", ROUNDED_MEAN_GRID)
def test_rounded_avalanche_mean_on_a_grid(N, alpha):
    """The fixed-point rule gives the float of the exact mean, tail bounds up to 1e400 included.

    The exact reference takes up to about 0.9 s (N = 300, D = 1003 digits);
    at N = 10^6, where it is unaffordable, 60-digit mpmath stands in.
    """
    params = Params.exact(N, alpha=alpha)
    expected = float(avalanche_mean(params)) if N <= 300 else mpmath_avalanche_mean(N, alpha)
    assert rounded_avalanche_mean(params) == expected


def test_rounded_avalanche_mean_does_not_overflow_on_its_tail_bound():
    # The tail bound alpha/(1-alpha) is about 1e400 here, past the float
    # range; the fixed-point bracket holds it in integers.
    assert rounded_avalanche_mean(Params.exact(2, alpha=1 - Fraction(1, 10**400))) == 1.5


# The series sum s_n / d^n is reduced by q^(v_q(n!)) for each prime q of d,
# with no gcd taken: a wrong exponent leaves a wrong or unreduced Fraction.
@settings(max_examples=150, deadline=None)
@given(params=exact_params())
def test_exact_series_come_in_lowest_terms(params):
    N, p = params.N, params.p

    def series(n):
        return sum((math.perm(n, i) * p**i for i in range(1, n + 1)), start=Fraction(0))

    head = N * p / (1 - N * p)
    expected = [series(N), normalization_C(params) / p * (head - series(N - 1))]
    got = [avalanche_mean(params), abelian_second_moment(params)]
    assert [(q.numerator, q.denominator) for q in got] == [(q.numerator, q.denominator) for q in expected]


@st.composite
def last_weight_params(draw):
    """N and p = a/d where d shares primes with w_N = (N^2 + 3N - 2)/2.

    w_N weights the last term of the Avalanche E[X^2] series, and only its
    primes can be common to that series' numerator and denominator once the
    mean's reduction is done.  d holds some of them, at up to 4 times, with
    a cofactor at times; N = 1 (w_N = 1) is drawn as well.
    """
    N = draw(st.integers(1, 40))
    w, primes, q = N * (N + 3) // 2 - 1, [], 2
    while w > 1:
        while w % q == 0:
            w //= q
            primes.append(q)
        q += 1
    d = math.prod(q ** draw(st.integers(0, 4)) for q in set(primes))
    d *= draw(st.sampled_from([1, 1, 2, 3, N + 1, 1000003]))
    while d <= N:
        d *= draw(st.sampled_from(primes or [2]))
    a = draw(st.sampled_from([1, (d - 1) // N]) | st.integers(1, (d - 1) // N))
    assume(math.gcd(a, d) == 1)
    return Params.exact(N, p=Fraction(a, d))


# At these points d's prime 2 divides w_N (64, 526, 628 and 628), so E[X^2]
# shares it with d^N beyond the mean's reduction.
@settings(max_examples=150, deadline=None)
@given(params=exact_params() | last_weight_params())
@example(params=Params.exact(10, p=Fraction(1, 18)))
@example(params=Params.exact(31, p=Fraction(1, 54)))
@example(params=Params.exact(34, p=Fraction(1, 54)))
@example(params=Params.exact(34, p=Fraction(3, 250)))
def test_exact_moments_match_brute_force_in_lowest_terms(params):
    """Each family's mean, E[X^2] and variance against the table sums, numerator and denominator apart.

    The variance's reference is E[X^2] - E[X]^2 of the table sums, reduced by Fraction.
    """
    for family in FAMILIES:
        m = moments(family, params)
        mean, second = brute_force_moment(family, params, 1), brute_force_moment(family, params, 2)
        expected = [mean, second, second - mean**2]
        got = [m.mean, m.second_moment, m.variance]
        assert [(q.numerator, q.denominator) for q in got] == [(q.numerator, q.denominator) for q in expected]


def test_rounded_avalanche_mean_needs_exact_params():
    with pytest.raises(ValueError):
        rounded_avalanche_mean(Params.stable(10, alpha=0.5))
