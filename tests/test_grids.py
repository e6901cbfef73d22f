import json
from unittest import mock

import numpy as np
import pytest

from oscresp import grids
from oscresp.functionals import ProbeSet, phi_vac_quadratic, phi_vac_response, quad_form
from oscresp.grids import (GridError, Kernel, SampledSignal, TimeGrid,
                           circular_convolve, frequency_split, half_step, kernel_adjoint,
                           make_grid, reflect_values, to_record, without_zero_nyquist,
                           write_csv, write_json, zero_nyquist_fraction)
from oscresp.kernels import OscillatorParams, osc_kernels
from oscresp.suites import Config


def random_signal(grid, rng, clean=False):
    s = SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return without_zero_nyquist(s) if clean else s


def test_make_grid_centers_window():
    g = make_grid(8, 0.5)
    assert np.allclose(g.times(), [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    g = make_grid(4, 1.0)
    assert np.allclose(g.times(), [-2.0, -1.0, 0.0, 1.0])


@pytest.mark.parametrize("n,dt", [(3, 1.0), (5, 0.1), (2, 1.0), (8, 0.0), (8, -1.0)])
def test_make_grid_rejects_bad_arguments(n, dt):
    with pytest.raises(GridError):
        make_grid(n, dt)


@pytest.mark.parametrize("n", [256.7, 256.0, "256", True, None, np.float64(256.0)])
def test_grid_sizes_that_are_not_integers_are_refused(n):
    for make in (lambda: make_grid(n, 0.1), lambda: TimeGrid(n=n, dt=0.1, t0=0.0),
                 lambda: SampledSignal.from_record({"n": n, "dt": 0.1, "t0": 0.0,
                                                    "values": [[0.0, 0.0]] * 256})):
        with pytest.raises(GridError, match="integer"):
            make()
    g = make_grid(np.int64(256), 0.1)          # a numpy integer is an integer
    assert g == make_grid(256, 0.1) and type(g.n) is int


@pytest.mark.parametrize("dt,t0", [(float("inf"), 0.0), (float("nan"), 0.0),
                                   (0.1, float("nan")), (0.1, float("-inf"))])
def test_time_grid_rejects_non_finite_step_and_origin(dt, t0):
    with pytest.raises(GridError):
        TimeGrid(8, dt, t0)


@pytest.mark.parametrize("cls", [SampledSignal, Kernel])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf,
                                 complex(1.0, -np.inf)])
def test_constructors_refuse_non_finite_samples(cls, bad):
    g = make_grid(16, 0.1)
    values = np.ones(16, dtype=complex)
    values[5] = bad
    with pytest.raises(GridError, match="finite"):
        cls(g, values)
    # samples whose squares overflow are finite and kept
    big = cls(g, np.full(16, 1e200 - 1e300j))
    assert np.array_equal(big.values, np.full(16, 1e200 - 1e300j))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_scaling_by_a_non_finite_number_is_refused(bad):
    g = make_grid(16, 0.1)
    for s in (SampledSignal(g, np.ones(16)), frequency_split(Kernel(g, np.ones(16)))[0]):
        with pytest.raises(GridError, match="finite"):
            s * bad
        with pytest.raises(GridError, match="finite"):
            bad * s


def test_index_of_rejects_off_grid_times():
    g = make_grid(8, 0.5)
    assert g.index_of(0.0) == 4
    with pytest.raises(GridError):
        g.index_of(0.3)


def test_split_of_cosine_halves_the_two_bins():
    g = make_grid(32, 0.1)
    w0 = 2.0 * np.pi * 3 / g.period
    t = g.times()
    s = SampledSignal(g, np.cos(w0 * t).astype(complex))
    plus, minus = frequency_split(s)
    assert np.max(np.abs(plus.values - 0.5 * np.exp(-1j * w0 * t))) < 1e-13
    assert np.max(np.abs(minus.values - 0.5 * np.exp(+1j * w0 * t))) < 1e-13


def test_split_of_constant_is_half_half():
    g = make_grid(16, 0.2)
    s = SampledSignal(g, np.ones(16, dtype=complex))
    plus, minus = frequency_split(s)
    assert np.max(np.abs(plus.values - 0.5)) < 1e-14
    assert np.max(np.abs(minus.values - 0.5)) < 1e-14


def test_split_of_positive_exponential_is_all_plus():
    g = make_grid(32, 0.1)
    w0 = 2.0 * np.pi * 5 / g.period
    s = SampledSignal(g, np.exp(-1j * w0 * g.times()))
    plus, minus = frequency_split(s)
    assert np.max(np.abs(plus.values - s.values)) < 1e-13
    assert np.max(np.abs(minus.values)) < 1e-13


def test_split_additivity_is_exact():
    rng = np.random.default_rng(0)
    g = make_grid(64, 0.3)
    for _ in range(20):
        s = random_signal(g, rng)
        plus, minus = frequency_split(s)
        assert np.max(np.abs(plus.values + minus.values - s.values)) < 1e-14


def test_split_projection_on_clean_signals():
    rng = np.random.default_rng(1)
    g = make_grid(64, 0.3)
    s = random_signal(g, rng, clean=True)
    plus, _ = frequency_split(s)
    again, _ = frequency_split(plus)
    assert np.max(np.abs(again.values - plus.values)) < 1e-14


def test_time_inversion_swaps_halves():
    rng = np.random.default_rng(2)
    g = make_grid(32, 0.25)
    s = random_signal(g, rng)
    plus, minus = frequency_split(s)
    reflected = SampledSignal(g, reflect_values(s.values))
    rplus, rminus = frequency_split(reflected)
    assert np.max(np.abs(rplus.values - reflect_values(minus.values))) < 1e-13
    assert np.max(np.abs(rminus.values - reflect_values(plus.values))) < 1e-13


@pytest.mark.parametrize("n,dt", [(8, 0.5), (256, 2.0 * np.pi * 8 / 256), (100, 0.037)])
def test_lags_are_exactly_odd_under_reflection(n, dt):
    lags = make_grid(n, dt).lags()
    assert lags[n // 2] == 0.0
    # sample 0 is the wrap point, which the reflection maps to itself
    assert np.array_equal(reflect_values(lags)[1:], -lags[1:])


def test_conjugation_swaps_halves_for_real_signals():
    rng = np.random.default_rng(3)
    g = make_grid(32, 0.25)
    s = SampledSignal(g, rng.standard_normal(g.n).astype(complex))
    plus, minus = frequency_split(s)
    assert np.max(np.abs(np.conj(plus.values) - minus.values)) < 1e-13


def test_parseval_with_edge_bin_cross_terms():
    rng = np.random.default_rng(4)
    g = make_grid(32, 0.25)
    s = random_signal(g, rng)
    plus, minus = frequency_split(s)
    spec = np.fft.fft(s.values)
    edge = 0.5 * (abs(spec[0]) ** 2 + abs(spec[g.n // 2]) ** 2) / g.n
    lhs = np.sum(np.abs(s.values) ** 2)
    rhs = np.sum(np.abs(plus.values) ** 2) + np.sum(np.abs(minus.values) ** 2) + edge
    assert abs(lhs - rhs) < 1e-12 * lhs

    clean = random_signal(g, rng, clean=True)
    plus, minus = frequency_split(clean)
    lhs = np.sum(np.abs(clean.values) ** 2)
    rhs = np.sum(np.abs(plus.values) ** 2) + np.sum(np.abs(minus.values) ** 2)
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_zero_nyquist_fraction():
    g = make_grid(16, 0.5)
    const = SampledSignal(g, np.ones(16, dtype=complex))
    assert zero_nyquist_fraction(const) == pytest.approx(1.0)
    w0 = 2.0 * np.pi * 2 / g.period
    clean = SampledSignal(g, np.exp(-1j * w0 * g.times()))
    assert zero_nyquist_fraction(clean) < 1e-28
    assert zero_nyquist_fraction(SampledSignal(g, np.zeros(16))) == 0.0


def test_convolution_with_identity_kernel():
    rng = np.random.default_rng(5)
    g = make_grid(16, 0.5)
    delta = np.zeros(16, dtype=complex)
    delta[g.n // 2] = 1.0 / g.dt
    s = random_signal(g, rng)
    out = circular_convolve(Kernel(g, delta), s)
    assert np.max(np.abs(out.values - s.values)) < 1e-12

    zero = SampledSignal(g, np.zeros(16))
    out = circular_convolve(Kernel(g, rng.standard_normal(16)), zero)
    assert np.max(np.abs(out.values)) == 0.0


def test_convolution_against_direct_summation():
    # independent O(n^2) oracle on a small grid, retarded kernel on a spike
    n = 8
    g = make_grid(n, 2.0 * np.pi / n)   # omega0 = 1 sits on bin 1
    t = g.times()
    theta = np.where(t > 0, 1.0, 0.0)
    theta[g.index_of(0.0)] = 0.5
    theta[0] = 0.5
    d_r = Kernel(g, -theta * np.sin(t))
    spike = np.zeros(n, dtype=complex)
    spike[g.index_of(0.0)] = 1.0
    s = SampledSignal(g, spike)

    direct = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            direct[i] += g.dt * d_r.values[(i - j + n // 2) % n] * s.values[j]
    out = circular_convolve(d_r, s)
    assert np.max(np.abs(out.values - direct)) < 1e-14
    # a unit spike at t = 0 reads the kernel samples back, scaled by dt
    assert np.max(np.abs(out.values - g.dt * d_r.values)) < 1e-14


def test_convolution_split_shift_identity():
    rng = np.random.default_rng(6)
    g = make_grid(64, 0.2)
    k = Kernel(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    s = random_signal(g, rng)
    lhs = circular_convolve(frequency_split(k)[0], s)
    rhs = circular_convolve(k, frequency_split(s)[0])
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * scale


def test_convolution_rejects_grid_mismatch():
    rng = np.random.default_rng(7)
    g1, g2 = make_grid(8, 0.5), make_grid(8, 0.25)
    with pytest.raises(GridError):
        circular_convolve(Kernel(g1, np.zeros(8)), SampledSignal(g2, np.zeros(8)))


def test_kernel_adjoint_examples():
    g = make_grid(8, 0.5)
    t = g.times()
    even = Kernel(g, np.cos(2.0 * np.pi * t / g.period))
    assert np.max(np.abs(kernel_adjoint(even).values - even.values)) < 1e-15

    spike = np.zeros(8, dtype=complex)
    spike[g.index_of(g.dt)] = 1j
    out = kernel_adjoint(Kernel(g, spike))
    expected = np.zeros(8, dtype=complex)
    expected[g.index_of(-g.dt)] = -1j
    assert np.array_equal(out.values, expected)


def test_kernel_adjoint_is_an_involution():
    rng = np.random.default_rng(8)
    g = make_grid(32, 0.3)
    k = Kernel(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert np.array_equal(kernel_adjoint(kernel_adjoint(k)).values, k.values)


# t[1] - t[0] differs from dt on the second to fourth grid, and the mean
# spacing (t[-1] - t[0])/(n - 1) is one ulp below dt on the fifth, above on the last
ROUND_TRIP_GRIDS = [make_grid(16, np.pi / 5), make_grid(256, 2 * np.pi * 8 / 256),
                    make_grid(2048, 0.005), make_grid(16384, 2 * np.pi * 8 / 16384),
                    make_grid(16, 2 * np.pi / 16), make_grid(4, 0.1)]


def test_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "sig.json"
    for g in [make_grid(16, np.pi / 7)] + ROUND_TRIP_GRIDS:
        s = random_signal(g, rng)
        write_json(s, path)
        back = SampledSignal.read_json(path)
        assert type(back) is SampledSignal
        assert back.grid == s.grid
        assert np.array_equal(back.values, s.values)

        k = Kernel(g, s.values)
        back = Kernel.from_record(json.loads(json.dumps(to_record(k))))
        assert type(back) is Kernel
        assert back.grid == k.grid
        assert np.array_equal(back.values, k.values)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "sig.csv"
    for g in ROUND_TRIP_GRIDS:
        s = random_signal(g, rng)
        write_csv(s, path)
        back = SampledSignal.read_csv(path)
        assert type(back) is SampledSignal
        assert back.grid == s.grid
        assert np.array_equal(back.values, s.values)

        k = Kernel(g, s.values)
        write_csv(k, path)
        back = Kernel.read_csv(path)
        assert type(back) is Kernel
        assert back.grid == k.grid
        assert np.array_equal(back.values, k.values)
        # the kernel read back convolves with a signal on the written grid
        circular_convolve(back, s)


def test_readers_refuse_non_finite_samples_and_uneven_times(tmp_path):
    g = make_grid(16, np.pi / 5)
    s = SampledSignal(g, np.arange(16.0))
    rec = to_record(s)
    rec["values"][3] = [float("nan"), 0.0]
    with pytest.raises(GridError):
        Kernel.from_record(rec)
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(GridError):
        SampledSignal.read_json(path)

    path = tmp_path / "sig.csv"
    write_csv(s, path)                                  # no signal holds inf: write it as text
    lines = path.read_text().splitlines()
    index, t, _, im = lines[-1].split(",")
    lines[-1] = ",".join((index, t, "inf", im))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridError):
        Kernel.read_csv(path)

    write_csv(s, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[5][1] = "0.125"                                # one time off the grid
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(GridError):
        SampledSignal.read_csv(path)

    # malformed input: a short row, a non-numeric field, a record with no t0, no JSON
    write_csv(s, path)
    good = path.read_text().splitlines()
    short, word = good[4].rsplit(",", 1)[0], good[6].rsplit(",", 2)[0] + ",one,0"
    for row, line in ((4, short), (6, word)):           # each keeps its grid time
        path.write_text("\n".join(good[:row] + [line] + good[row + 1:]) + "\n")
        with pytest.raises(GridError):
            SampledSignal.read_csv(path)
    rec = to_record(s)
    del rec["t0"]
    with pytest.raises(GridError):
        Kernel.from_record(rec)
    path = tmp_path / "sig.json"
    for text in (json.dumps(rec), "{"):
        path.write_text(text)
        with pytest.raises(GridError):
            SampledSignal.read_json(path)


def test_signal_arithmetic_and_value_lookup():
    g = make_grid(8, 0.5)
    a = SampledSignal(g, np.arange(8, dtype=complex))
    b = SampledSignal(g, np.ones(8, dtype=complex))
    assert np.array_equal((a + b).values, a.values + 1)
    assert np.array_equal((a - b).values, a.values - 1)
    assert np.array_equal((2.0 * a).values, 2 * a.values)
    assert a.value_at(-2.0) == 0.0
    assert Kernel(g, np.arange(8, dtype=complex)).value_at_tau(-2.0) == 0.0


def test_a_spectrum_is_made_once_read_only_and_equal_to_the_transform():
    rng = np.random.default_rng(11)
    g = make_grid(64, 0.1)
    s = random_signal(g, rng)
    k = Kernel(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert "_spectrum" not in vars(s)
    assert np.array_equal(s._spectrum, np.fft.fft(s.values))
    assert s._spectrum is s._spectrum
    for spec in (s._spectrum, k._spectrum, k._zero_based_spectrum, *grids._split_masks(64)):
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0] = 0.0


# a spectrum made by a derived operation sits within ULPS eps of its largest
# bin of fft(values); 2.5 is the worst seen over n = 4 to 4096
ULPS = 8


def within_rounding(spec, expected):
    return np.max(np.abs(spec - expected)) <= ULPS * np.finfo(float).eps * np.max(np.abs(spec))


@pytest.mark.parametrize("n", [4, 8, 256, 1024])
def test_the_zero_based_spectrum_is_the_spectrum_times_alternating_signs(n):
    rng = np.random.default_rng(n + 1)
    g = make_grid(n, 0.05)
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    made = Kernel(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for k in (made, frequency_split(made)[0], kernel_adjoint(frequency_split(made)[1])):
        spec = k._zero_based_spectrum
        assert spec.tobytes() == (k._spectrum * signs).tobytes()
        assert within_rounding(spec, np.fft.fft(np.roll(k.values, -(n // 2))))


def test_each_signal_is_transformed_once():
    rng = np.random.default_rng(13)
    g = make_grid(32, 2.0 * np.pi * 4 / 32)     # omega0 = 1 on bin 4
    s = random_signal(g, rng)
    k = Kernel(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    with (mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft,
          mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft):
        for _ in range(3):
            frequency_split(s), circular_convolve(k, s)
            zero_nyquist_fraction(s), without_zero_nyquist(s)
        assert fft.call_count == 2      # the spectra of s and of k
        assert ifft.call_count == 0     # no result's samples were read

        # the vacuum functional in both forms, on clean probes: one forward
        # transform per kernel, none of a probe or of a substitution image
        kers = osc_kernels(OscillatorParams(), g)
        probes = ProbeSet(random_signal(g, rng, clean=True), random_signal(g, rng, clean=True))
        fft.reset_mock()
        for _ in range(2):
            phi_vac_quadratic(probes, kers), phi_vac_response(probes, kers.d_r)
        assert fft.call_count == 3      # d_f, d and d_r
        assert ifft.call_count == 0

        # the adjoint and conjugate of a kernel are made in the domain the kernel
        # was made in, though its spectrum was read: a quadratic form of them
        # transforms one made in samples once, and one made in the spectrum never
        for kernel, transforms in ((k, 1), (frequency_split(k)[0], 0)):
            for derived in (kernel_adjoint(kernel), kernel.conj()):
                fft.reset_mock()
                quad_form(s, derived, s)
                assert fft.call_count == transforms
        assert ifft.call_count == 0


def test_derived_signals_keep_the_domains_of_their_operands():
    rng = np.random.default_rng(12)
    g = make_grid(32, 0.2)
    s = random_signal(g, rng)
    k = Kernel(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    plus, minus = frequency_split(random_signal(g, rng))

    def held(d):
        return d._made_in, {"values", "_spectrum"} & set(vars(d))

    # samples meet samples in the samples, with the bits of the plain operations
    for d, expected in ((s + s, s.values + s.values), (s - k, s.values - k.values),
                        (2.0 * s, 2.0 * s.values), (s * 1j, s.values * 1j),
                        (s.conj(), np.conj(s.values)),
                        (kernel_adjoint(k), np.conj(reflect_values(k.values)))):
        assert held(d) == ("values", {"values"})
        assert d.values.tobytes() == expected.tobytes()
    assert type(kernel_adjoint(s)) is Kernel and type(k + s) is Kernel
    # spectra meet spectra, and samples meet a spectrum in the spectrum
    for d in (plus + minus, plus - minus, 2.0 * plus, plus.conj(), kernel_adjoint(plus),
              s + plus, minus - s, without_zero_nyquist(s), circular_convolve(k, s)):
        assert held(d) == ("_spectrum", {"_spectrum"})

    # the domain an operand was made in decides, not what was read of it: with
    # both domains of every operand read first, each result is made in the same
    # domain with the same bits
    derivations = (lambda a, b: a.conj(), lambda a, b: kernel_adjoint(a),
                   lambda a, b: 3.0 * a, lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: b.conj(), lambda a, b: kernel_adjoint(b),
                   lambda a, b: (0.5 - 2j) * b, lambda a, b: b - b)

    def operands():
        made = Kernel(g, k.values)
        return made, frequency_split(made)[0]

    read = operands()
    for x in read:
        x.values, x._spectrum
    for derive in derivations:
        fresh = derive(*operands())
        again = derive(*read)
        assert again._made_in == fresh._made_in
        assert again.values.tobytes() == fresh.values.tobytes()
        assert again._spectrum.tobytes() == fresh._spectrum.tobytes()


def test_a_sum_of_kernels_has_the_same_bits_whatever_was_read_first():
    # on the seed-7 config grid, a sum that follows what was read of its
    # operands moves D + D_R and this form by 3.7e-15
    cfg = Config(seed=7)
    grid = cfg.grid()

    def form(read_first):
        kers = osc_kernels(cfg.params(), grid)
        s = random_signal(grid, np.random.default_rng(cfg.seed))
        if read_first:
            kers.d._spectrum, kers.d_r._spectrum
        return quad_form(s, kers.d + kers.d_r, s)

    assert form(read_first=True) == form(read_first=False)


@pytest.mark.parametrize("n", [4, 8, 256, 1024])
def test_spectrum_made_signals_are_within_rounding_of_the_transforms(n):
    rng = np.random.default_rng(n)
    g = make_grid(n, 0.05)
    s = random_signal(g, rng)
    k = Kernel(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    spec, kspec = np.fft.fft(s.values), np.fft.fft(k.values)
    plus, minus = frequency_split(s)
    derived = [plus, minus, *frequency_split(k), without_zero_nyquist(s), circular_convolve(k, s),
               plus + minus, plus - s, (0.5 - 2j) * plus, plus.conj(), kernel_adjoint(plus)]
    for d in derived:
        assert "values" not in vars(d)
        held = d._spectrum
        with mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft:
            values = d.values
            assert d.values is values
        assert ifft.call_count == 1
        assert values.tobytes() == np.fft.ifft(held).tobytes()
        assert not values.flags.writeable and not held.flags.writeable
        assert within_rounding(held, np.fft.fft(values))
    # the split parts, the convolution and the cleaned signal are bin-by-bin
    # products of the spectra, bit for bit
    mask = half_step(n)
    assert plus._spectrum.tobytes() == (spec * mask).tobytes()
    assert minus._spectrum.tobytes() == (spec * (1.0 - mask)).tobytes()
    zero_based = kspec * np.where(np.arange(n) % 2, -1.0, 1.0)
    assert circular_convolve(k, s)._spectrum.tobytes() == (g.dt * (zero_based * spec)).tobytes()
    edge = spec.copy()
    edge[0] = edge[n // 2] = 0.0
    assert without_zero_nyquist(s)._spectrum.tobytes() == edge.tobytes()
    assert zero_nyquist_fraction(s) == float(np.abs(spec[0]) ** 2 + np.abs(spec[n // 2]) ** 2) / (
        float(np.sum(np.abs(spec) ** 2)))
    assert np.array_equal(s._spectrum, spec)      # the derived signals left it as it was


# -- stacks ---------------------------------------------------------------------

def stack_of(grid, rng, shape):
    return SampledSignal(grid, rng.standard_normal((*shape, grid.n))
                         + 1j * rng.standard_normal((*shape, grid.n)))


def test_a_stack_holds_its_shape_and_a_single_signal_the_empty_one():
    g = make_grid(16, 0.25)
    rng = np.random.default_rng(4)
    assert stack_of(g, rng, (3, 2)).stack_shape == (3, 2)
    assert random_signal(g, rng).stack_shape == ()
    assert without_zero_nyquist(stack_of(g, rng, (5,))).stack_shape == (5,)
    assert isinstance(zero_nyquist_fraction(random_signal(g, rng)), float)
    assert zero_nyquist_fraction(stack_of(g, rng, (3, 2))).shape == (3, 2)
    # a signal with no energy has no edge fraction either, alone or in a stack
    assert zero_nyquist_fraction(SampledSignal(g, np.zeros(16))) == 0.0
    assert np.array_equal(zero_nyquist_fraction(SampledSignal(g, np.zeros((2, 16)))), [0, 0])
    # the last axis must be the grid's
    for shape in [(), (8, 3), (2, 16, 1)]:
        with pytest.raises(GridError):
            SampledSignal(g, np.zeros(shape))


def test_a_kernel_refuses_a_stack():
    g = make_grid(16, 0.25)
    rng = np.random.default_rng(5)
    with pytest.raises(GridError):
        Kernel(g, np.zeros((2, 16)))
    kernel = Kernel(g, rng.standard_normal(16))
    with pytest.raises(GridError):
        kernel + stack_of(g, rng, (3,))
    with pytest.raises(GridError):
        kernel - without_zero_nyquist(stack_of(g, rng, (3,)))


def test_stacks_whose_shapes_do_not_broadcast_are_refused():
    g = make_grid(16, 0.25)
    rng = np.random.default_rng(6)
    a, b = stack_of(g, rng, (3,)), stack_of(g, rng, (4,))
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(GridError):
            combine(a, b)
        with pytest.raises(GridError):
            combine(without_zero_nyquist(a), b)
    with pytest.raises(GridError):
        quad_form(a, Kernel(g, rng.standard_normal(16)), b)
    # shapes that broadcast combine as numpy broadcasts them
    assert (stack_of(g, rng, (3, 1)) + b).stack_shape == (3, 4)
    assert (a - random_signal(g, rng)).stack_shape == (3,)


def test_what_reads_one_signal_refuses_a_stack(tmp_path):
    g = make_grid(16, 0.25)
    s = stack_of(g, np.random.default_rng(7), (2,))
    with pytest.raises(GridError):
        s.value_at(0.0)
    with pytest.raises(GridError):
        to_record(s)
    for write, name in ((write_json, "s.json"), (write_csv, "s.csv")):
        with pytest.raises(GridError):
            write(s, tmp_path / name)
        assert not (tmp_path / name).exists()


def test_the_signals_of_a_stack_axis_keep_their_domain_and_bits():
    g = make_grid(16, 0.25)
    s = stack_of(g, np.random.default_rng(8), (3, 2))
    for made in (s, without_zero_nyquist(s)):
        for j, column in enumerate(grids._unstack(made)):
            assert column._made_in == made._made_in
            assert column.stack_shape == (3,)
            assert column.values.tobytes() == made.values[:, j].tobytes()
    with pytest.raises(GridError):
        grids._unstack(random_signal(g, np.random.default_rng(9)))
