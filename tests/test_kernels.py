import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from oscresp import fock, grids, kernels, suites
from oscresp.grids import (GridError, Kernel, adjoint, frequency_split, half_step,
                           kernel_adjoint, make_grid, reflect_values, swap_reflect)
from oscresp.kernels import (RECONSTRUCTED, ChargedModeSet, CommensurabilityError,
                             ModeSet, OscillatorParams, charged_field_kernels,
                             commutator_kernel, neutral_field_kernels, osc_d_value,
                             check_commensurate, osc_df_value, osc_dr_value, osc_kernels,
                             qp_commutator_kernel, reconstruct,
                             reconstruction_residuals, time_order)
from oscresp.suites import Config, _demo_charged_modes, _demo_mode_set, run_suite

P = OscillatorParams()          # m = omega0 = hbar = 1


def reference_grid(n=256, bin_index=8):
    # omega0 = 1 sits exactly on the requested bin
    return make_grid(n, 2.0 * np.pi * bin_index / n)


def test_params_validation_and_scales():
    p = OscillatorParams(mass=2.0, omega0=3.0, hbar=0.5)
    assert p.q0 * p.p0 == pytest.approx(p.hbar, rel=1e-15)
    with pytest.raises(ValueError):
        OscillatorParams(mass=-1.0)


@pytest.mark.parametrize("field", ["mass", "omega0", "hbar"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError):
        OscillatorParams(**{field: value})


def test_closed_form_reference_values():
    assert osc_dr_value(np.pi / 2, P) == pytest.approx(-1.0, abs=1e-15)
    assert osc_d_value(0.0, P) == pytest.approx(-0.5j, abs=1e-15)
    assert osc_df_value(np.pi, P) == pytest.approx(+0.5j, abs=1e-15)
    # the step convention puts half the jump at zero; D_R(0) vanishes anyway
    assert osc_dr_value(0.0, P) == 0.0


def test_grid_kernels_match_closed_forms():
    g = reference_grid(64, 2)
    kers = osc_kernels(P, g)
    for tau in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        assert kers.d_r.value_at_tau(tau) == pytest.approx(osc_dr_value(tau, P), abs=1e-14)
        assert kers.d.value_at_tau(tau) == pytest.approx(osc_d_value(tau, P), abs=1e-14)
        assert kers.d_f.value_at_tau(tau) == pytest.approx(osc_df_value(tau, P), abs=1e-14)


def test_incommensurate_frequency_is_rejected_unless_loose():
    g = make_grid(64, 0.1)
    with pytest.raises(CommensurabilityError):
        osc_kernels(P, g)
    kers = osc_kernels(P, g, loose=True)
    assert kers.grid is g


# -- phases from the roots of unity --------------------------------------------

ROOT_SIZES = (4, 6, 8, 10, 12, 20, 256, 1000, 1026, 2048, 16384)


@pytest.mark.parametrize("n", ROOT_SIZES)
def test_root_table_is_conjugate_symmetric_bit_for_bit(n):
    roots = kernels._roots(n)
    assert roots is kernels._roots(n) and not roots.flags.writeable
    k = np.arange(1, n)
    k = k[k != n // 2]                  # r[0] = 1 and r[n/2] = -1 are real
    assert roots[n - k].tobytes() == np.conj(roots[k]).tobytes()
    assert roots[[0, n // 2]].tobytes() == np.array([1.0, -1.0], complex).tobytes()
    if n % 4 == 0:
        assert roots[n // 4] == -1j


@pytest.mark.parametrize("n", (6, 8, 12, 20, 1000, 1026, 16384))
def test_root_table_against_forty_digit_roots(n):
    roots = kernels._roots(n)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpc(complex(roots[k])) - mpmath.expjpi(mpmath.mpf(-2 * k) / n))
                    for k in range(n))
    assert worst < 1e-15, worst


def test_table_phases_agree_with_exp_within_its_rounding_bound():
    # exp rounds omega*tau, which reaches pi*n/2 at the top bin; the table does not
    n, dt = 16384, 0.01
    g = make_grid(n, dt)
    eps = np.finfo(float).eps
    bins = np.r_[np.arange(1, n // 2, 61), np.arange(n // 2 - 8, n // 2)]
    for chunk in np.array_split(bins, 8):
        omegas = 2.0 * np.pi * chunk / (n * dt)
        argument = np.outer(omegas, g.lags())
        gap = np.abs(kernels._phases(omegas, g) - np.exp(-1j * argument))
        assert np.all(gap <= kernels._PHASE_ROUNDING * eps * np.abs(argument) + eps)
    assert check_commensurate(2.0 * np.pi * 37 / (n * dt), g) == 37


def test_qp_and_charged_builders_refuse_an_off_bin_frequency():
    # osc_kernels and neutral_field_kernels have their own tests of this
    g = reference_grid(64, 2)
    off = 1.0 + 1e-6                     # bin 2.000002 of the grid
    with pytest.raises(CommensurabilityError):
        qp_commutator_kernel(OscillatorParams(omega0=off), g)
    with pytest.raises(CommensurabilityError):
        charged_field_kernels(ChargedModeSet(np.array([1.0]), np.ones(1),
                                             np.array([off]), np.ones(1)), g)


@pytest.mark.parametrize("n, dt", [(2048, 0.005), (256, 2.0 * np.pi * 8 / 256), (64, 0.1)])
def test_loose_oscillator_kernels_keep_the_closed_form(n, dt):
    # the loose path evaluates exp on or off the bins, as it always has
    g = make_grid(n, dt)
    kers = osc_kernels(P, g, loose=True)
    d = osc_d_value(g.lags(), P)
    d_f, d_r = time_order(d, reflect_values(d))
    for got, want in ((kers.d, d), (kers.d_f, d_f), (kers.d_r, d_r)):
        assert got.values.tobytes() == want.tobytes()


def family(kind, g):
    """(forward, d_f, d_r, backward) of the oscillator or a demo field; backward None if neutral."""
    if kind == "oscillator":
        kers = osc_kernels(P, g)
        return kers.d.values, kers.d_f.values, kers.d_r.values, None
    if kind == "neutral":
        nk = neutral_field_kernels(_demo_mode_set(g, np.random.default_rng(11)), g)
        return nk.d, nk.d_f, nk.d_r, None
    ck = charged_field_kernels(_demo_charged_modes(g), g)
    return ck.d_a.values, ck.d_f.values, ck.d_r.values, ck.d_b.values


@pytest.mark.parametrize("kind", ["oscillator", "neutral", "charged"])
def test_every_family_is_rebuilt_from_its_retarded_kernel(kind):
    g = reference_grid(128, 4)
    forward, d_f, d_r, backward = family(kind, g)
    res = reconstruction_residuals(forward, d_f, d_r, backward=backward)
    assert tuple(res) == RECONSTRUCTED
    assert res["d_r_two_defs"] < 1e-12
    for name in RECONSTRUCTED[1:]:
        assert res[name] < 1e-10, name


def test_concurrent_callers_of_the_worker_pool_get_the_results_of_one_caller():
    # 81 rows of 2048 samples: a large family, whose blocks share the pool
    # with those of the other callers
    rng = np.random.default_rng(3)
    shape = (3, 3, 3, 3, 2048)
    forward, d_f, d_r = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         for _ in range(3))
    expected = reconstruction_residuals(forward, d_f, d_r)
    rebuilt = reconstruct(d_r, "d_f")
    g = make_grid(2048, 0.1)
    modes = ModeSet(np.arange(1, 5) * 2.0 * np.pi / g.period,
                    rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
    built = neutral_field_kernels(modes, g)
    results, errors = [], []

    def caller():
        try:
            for _ in range(3):
                same = np.array_equal(reconstruct(d_r, "d_f"), rebuilt)
                nk = neutral_field_kernels(modes, g)
                same &= all(np.array_equal(getattr(nk, x), getattr(built, x))
                            for x in ("d", "d_f", "d_r"))
                results.append(same and reconstruction_residuals(forward, d_f, d_r) == expected)
        except Exception as exc:       # a thread's exception would be lost: assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [True] * 18


def large_field(n, seed=5):
    """(forward, d_f, d_r, backward) of a neutral field of 3 labels x 3 points at n samples.

    Its 81 rows run inline at n = 256 and in 9 blocks on the worker pool
    at n = 4096; backward is swap_reflect(forward), passed explicitly.
    """
    g = make_grid(n, 0.1)
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    nk = neutral_field_kernels(ModeSet(np.array([3, 5, 8, 13]) * 2.0 * np.pi / g.period,
                                       amplitudes), g)
    return nk.d, nk.d_f, nk.d_r, swap_reflect(nk.d)


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("pair", [(0, 0, 0, 0), (2, 1, 0, 0), (1, 2, 2, 0), (0, 1, 2, 2)])
@pytest.mark.parametrize("name", ["forward", "backward", "d_f", "d_r"])
def test_a_nan_at_any_label_pair_gives_a_nan_residual(n, pair, name):
    arrays = dict(zip(("forward", "d_f", "d_r", "backward"), large_field(n)))
    arrays[name] = arrays[name].copy()
    arrays[name][pair + (n // 3,)] = np.nan
    res = reconstruction_residuals(arrays["forward"], arrays["d_f"], arrays["d_r"],
                                   backward=arrays["backward"])
    compared = {"forward": ("d_r_two_defs", "forward"), "backward": ("backward",),
                "d_f": ("d_r_two_defs", "d_f"), "d_r": RECONSTRUCTED}[name]
    assert all(math.isnan(res[key]) for key in compared), res
    assert not any(math.isnan(res[key]) for key in RECONSTRUCTED if key not in compared), res


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("name", ["forward", "backward", "d_f", "neutral"])
def test_a_change_at_a_lower_label_pair_is_read_by_its_residual(n, name):
    # (mu, r, mu', r') = (2, 1, 0, 2): first label half 7, second 2, below the diagonal;
    # "neutral" changes forward and passes no backward contraction, which is then
    # swap_reflect(forward) and carries the change to the rows (2, 7) above
    arrays = dict(zip(("forward", "d_f", "d_r", "backward"), large_field(n)))
    changed, read = ("forward", ("d_r_two_defs", "forward", "backward")) if name == "neutral" \
        else (name, (name,))
    arrays[changed] = arrays[changed].copy()
    arrays[changed][2, 1, 0, 2, n // 5] += 1e-3 - 2e-3j
    res = reconstruction_residuals(arrays["forward"], arrays["d_f"], arrays["d_r"],
                                   backward=None if name == "neutral" else arrays["backward"])
    assert all(res[key] == pytest.approx(abs(1e-3 - 2e-3j), abs=1e-13) for key in read), res
    others = [key for key in RECONSTRUCTED[1:] if key not in read]
    assert all(res[key] < 1e-13 for key in others), res


def test_the_pool_and_inline_blockings_give_the_same_bits(monkeypatch):
    # runs of 4 rows of 4096 samples on the pool, then inline, then runs of one row
    forward, d_f, d_r, backward = large_field(4096)
    d_f = d_f + 1e-6 * np.random.default_rng(2).standard_normal(d_f.shape)
    pooled = reconstruction_residuals(forward, d_f, d_r, backward=backward)
    rebuilt = {name: reconstruct(d_r, name) for name in RECONSTRUCTED[1:]}
    for setting, value in (("_pool", lambda: None), ("_BLOCK_SAMPLES", 1)):
        with monkeypatch.context() as patch:
            patch.setattr(grids, setting, value)
            assert reconstruction_residuals(forward, d_f, d_r, backward=backward) == pooled
            for name, kernel in rebuilt.items():
                assert reconstruct(d_r, name).tobytes() == kernel.tobytes(), (setting, name)


def test_the_rebuild_holds_a_few_rows_however_many_label_halves(monkeypatch):
    # inline, so that the bound does not depend on the CPU count: h = 4 label
    # halves of one-row runs; whole-half runs would hold 11 to 20 rows here
    monkeypatch.setattr(grids, "_pool", lambda: None)
    n = 16384
    rng = np.random.default_rng(6)
    shape = (2, 2, 2, 2, n)
    forward, d_f, d_r = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         for _ in range(3))
    backward = swap_reflect(forward)
    calls = {"residuals": lambda: reconstruction_residuals(forward, d_f, d_r, backward=backward),
             "neutral residuals": lambda: reconstruction_residuals(forward, d_f, d_r)}
    calls.update({name: lambda name=name: reconstruct(d_r, name) for name in RECONSTRUCTED[1:]})
    for name, call in calls.items():
        call()                              # the masks and caches are made once
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = peak / (16 * n) - (out.size // n if isinstance(out, np.ndarray) else 0)
        assert held < 8, (name, held)


def test_verify_all_gives_the_same_rows_with_every_family_on_the_pool(monkeypatch):
    inline = run_suite("all", Config(seed=7)).rows
    monkeypatch.setattr(grids, "_BLOCK_SAMPLES", 0)
    assert run_suite("all", Config(seed=7)).rows == inline


@pytest.mark.parametrize("labels", [(), (2, 3)])
def test_unknown_kernel_names_are_refused_before_any_block_runs(monkeypatch, labels):
    monkeypatch.setattr(kernels, "_each_block", None)   # a block run would raise TypeError
    values = np.ones((*labels, *labels, 16), complex)
    for name in ("plain", "forwrd", "d_r_two_defs", "d_r"):
        with pytest.raises(GridError, match=repr(name)):
            reconstruct(values, name)
    for names in (("forwrd",), ("forward", "d_r"), ("d_f_dag",)):
        with pytest.raises(GridError, match="names"):
            reconstruction_residuals(values, values, values, names=names)


@pytest.mark.parametrize("labels, n", [((), 64), ((2, 3), 64), ((3, 3), 4096)])
def test_each_upper_label_pair_is_transformed_once(monkeypatch, labels, n):
    # a 1-d kernel, a 6-row family inline and an 81-row family on the pool
    rows = {"fft": [], "ifft": []}
    for transform, counted in rows.items():
        def count(values, *args, _transform=getattr(np.fft, transform), _rows=counted, **kw):
            _rows.append(math.prod(np.shape(values)[:-1]))      # append: thread-safe
            return _transform(values, *args, **kw)
        monkeypatch.setattr(np.fft, transform, count)
    rng = np.random.default_rng(4)
    shape = (*labels, *labels, n)
    forward, d_f, d_r, backward = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                                   for _ in range(4))
    h = math.prod(labels)
    reconstruction_residuals(forward, d_f, d_r, backward=backward)
    assert {key: sum(counted) for key, counted in rows.items()} == {
        "fft": h * (h + 1) // 2, "ifft": h * (h + 1) // 2}
    for counted in rows.values():
        counted.clear()
    reconstruct(d_r, "backward")
    assert [sum(counted) for counted in rows.values()] == [h * (h + 1) // 2] * 2


@pytest.mark.parametrize("shape", [(2, 3, 16), (2, 2, 3, 16), (2, 16), (3, 2, 2, 3, 16), ()])
def test_shapes_that_are_not_a_kernel_family_are_refused(shape):
    values = np.ones(shape, complex)
    for call in (lambda: reconstruct(values, "d_f"), lambda: swap_reflect(values),
                 lambda: adjoint(values),
                 lambda: reconstruction_residuals(values, values, values)):
        with pytest.raises(GridError):
            call()


@pytest.mark.parametrize("name", ["forward", "d_f", "d_r", "backward"])
def test_kernels_of_another_shape_than_d_r_are_refused(name):
    family = np.ones((2, 2, 16), complex)
    arrays = {"forward": family, "d_f": family, "d_r": family, "backward": family,
              name: np.ones((3, 3, 16), complex)}
    with pytest.raises(GridError, match="where D_R has"):
        reconstruction_residuals(arrays["forward"], arrays["d_f"], arrays["d_r"],
                                 backward=arrays["backward"])


def test_retarded_from_contractions_equals_stepped_difference():
    g = reference_grid(64, 3)
    d = osc_kernels(P, g).d.values
    theta = half_step(g.n)
    d_f, d_r = time_order(d, reflect_values(d))
    assert np.max(np.abs(d_r - theta * (d - reflect_values(d)))) < 1e-14
    assert np.max(np.abs(d_f - d_r - reflect_values(d))) < 1e-14
    # antisymmetrized retarded equals antisymmetrized plain
    assert np.max(np.abs(d_r - reflect_values(d_r) - d + reflect_values(d))) < 1e-10

    z = np.zeros(g.n)
    assert np.max(np.abs(time_order(z, z)[1])) == 0.0


def test_plain_contraction_is_frequency_positive_and_retarded_is_real():
    g = reference_grid()
    kers = osc_kernels(P, g)
    _, minus = frequency_split(kers.d)
    assert np.max(np.abs(minus.values)) < 1e-12
    assert np.max(np.abs(kers.d_r.values.imag)) < 1e-14
    plus, minus = frequency_split(kers.d_r)
    assert np.max(np.abs(np.conj(plus.values) - minus.values)) < 1e-13


def test_commutator_kernel_against_matrix_oracle():
    g = reference_grid(64, 2)
    kers = osc_kernels(P, g)
    comm = commutator_kernel(kers.d_r, P.hbar)
    dim = 20
    vac = fock.make_state("vacuum", dim)
    t = g.times()
    for i1, i2 in [(40, 32), (10, 50), (32, 32)]:
        q1 = fock.heisenberg_q(P, t[i1], dim)
        q2 = fock.heisenberg_q(P, t[i2], dim)
        oracle = fock.expectation(vac, q1 @ q2 - q2 @ q1)
        assert abs(comm.values[(i1 - i2 + g.n // 2) % g.n] - oracle) < 1e-12

    # tau = pi/2 evaluates to -i, equal time to 0 (for m = omega0 = hbar = 1)
    assert comm.value_at_tau(np.pi / 2) == pytest.approx(-1j, abs=1e-14)
    assert comm.value_at_tau(0.0) == 0.0


def test_qp_commutator_kernel_closed_form():
    g = reference_grid(64, 2)
    qp = qp_commutator_kernel(P, g)
    assert qp.value_at_tau(0.0) == pytest.approx(1j * P.hbar, abs=1e-15)
    assert np.max(np.abs(qp.values - 1j * np.cos(g.times()))) < 1e-14


def scaled_kernel(build):
    def mutant(*args):
        kernel = build(*args)
        return Kernel(kernel.grid, (1 + 1e-8) * kernel.values)
    return mutant


def scaled_p_parts(observable, t, p, parts=fock.ladder_parts):
    c, d = parts(observable, t, p)
    scale = 1 + 1e-8 if observable == "p" else 1.0
    return scale * c, scale * d


def reversed_batch(state, specs, p, averages=fock.ordered_averages):
    return averages(state, specs, p)[::-1]


@pytest.mark.parametrize("module, name, mutant, failing", [
    (suites, "commutator_kernel", scaled_kernel(commutator_kernel),
     {"commutator-reconstruction"}),
    (suites, "qp_commutator_kernel", scaled_kernel(qp_commutator_kernel), {"qp-commutator"}),
    (fock, "ladder_parts", scaled_p_parts, {"qp-commutator", "canonical-commutator"}),
    # a batch read back in the wrong order cannot pass: every row that reads one fails
    (fock, "ordered_averages", reversed_batch,
     {"two-point-forward", "two-point-plain", "two-point-backward",
      "commutator-reconstruction", "qp-commutator", "canonical-commutator"}),
], ids=["commutator-kernel", "qp-commutator-kernel", "p-ladder-parts", "reversed-batch"])
def test_a_relative_commutator_defect_of_1e_8_fails_its_rows(monkeypatch, module, name,
                                                             mutant, failing):
    monkeypatch.setattr(module, name, mutant)
    report = run_suite("kernels", Config(seed=7))
    assert {row.id for row in report.rows if not row.passed} == failing


def test_the_kernels_suite_forms_no_dense_truncated_operator(monkeypatch):
    # the commutator rows read the banded oracle, which has no top level to crop
    def refuse(*args):
        raise AssertionError("a dense truncated operator was formed")

    for name in ("heisenberg_q", "heisenberg_p", "expectation"):
        monkeypatch.setattr(fock, name, refuse)
    assert run_suite("kernels", Config(seed=7)).passed


# -- neutral fields ---------------------------------------------------------

def test_single_unit_mode_reduces_to_oscillator_contraction():
    g = reference_grid(64, 2)
    ms = ModeSet(frequencies=np.array([P.omega0]),
                 amplitudes=np.ones((1, 1, 1), dtype=complex))
    nk = neutral_field_kernels(ms, g)
    kers = osc_kernels(P, g)
    assert np.max(np.abs(nk.d[0, 0, 0, 0] / (2 * P.mass * P.omega0) - kers.d.values)) < 1e-14


def test_field_swap_reflection_gives_minus_conjugate():
    # [Q^(+), Q^(-)] structure forces K_{b a}(-tau) = -conj(K_{a b}(tau))
    rng = np.random.default_rng(12)
    g = reference_grid(128, 4)
    nk = neutral_field_kernels(_demo_mode_set(g, rng), g)
    swapped_family = swap_reflect(nk.d)
    for mu, r, mup, rp in [(0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 0)]:
        swapped = reflect_values(nk.d[mup, rp, mu, r])
        assert np.array_equal(swapped_family[mu, r, mup, rp], swapped)
        assert np.max(np.abs(swapped + np.conj(nk.d[mu, r, mup, rp]))) < 1e-13
    # a 1-d kernel has no labels: swap_reflect is plain reflection
    assert np.array_equal(swap_reflect(nk.d[0, 0, 0, 0]), reflect_values(nk.d[0, 0, 0, 0]))


def test_field_rejects_incommensurate_or_invalid_modes():
    g = make_grid(64, 0.1)
    ms = ModeSet(frequencies=np.array([1.0]), amplitudes=np.ones((1, 1, 1), dtype=complex))
    with pytest.raises(CommensurabilityError):
        neutral_field_kernels(ms, g)
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([-1.0]), amplitudes=np.ones((1, 1, 1), dtype=complex))
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([1.0]), amplitudes=np.ones((2, 1, 1), dtype=complex))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_field_rejects_non_finite_modes(value):
    amplitudes = np.ones((2, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([1.0, value]), amplitudes=amplitudes)
    amplitudes[1, 0, 0] = complex(0.0, value)
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([1.0, 2.0]), amplitudes=amplitudes)


@pytest.mark.parametrize("modes, labels, points", [(1, 2, 3), (3, 2, 3), (4, 3, 2), (2, 1, 1)])
def test_field_kernels_match_a_sum_over_modes(modes, labels, points):
    rng = np.random.default_rng(modes * 100 + labels * 10 + points)
    g = reference_grid(128, 4)
    bins = rng.choice(np.arange(1, g.n // 2), size=modes, replace=False)
    shape = (modes, labels, points)
    amplitudes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ms = ModeSet(bins * 2.0 * np.pi / g.period, amplitudes)
    direct = np.zeros((labels, points, labels, points, g.n), dtype=complex)
    for w, a in zip(ms.frequencies, ms.amplitudes):
        phase = np.exp(-1j * w * g.lags())
        direct += -1j * a[:, :, None, None, None] * np.conj(a)[None, None, :, :, None] * phase
    scale = sum(np.max(np.abs(a)) ** 2 for a in ms.amplitudes)
    assert np.max(np.abs(neutral_field_kernels(ms, g).d - direct)) <= 1e-13 * scale


# -- charged fields ----------------------------------------------------------

def test_charged_anti_hermiticity_and_frequency_signs():
    g = reference_grid()
    ck = charged_field_kernels(_demo_charged_modes(g), g)
    assert np.max(np.abs(kernel_adjoint(ck.d_a).values + ck.d_a.values)) < 1e-14
    assert np.max(np.abs(kernel_adjoint(ck.d_b).values + ck.d_b.values)) < 1e-14
    _, da_minus = frequency_split(ck.d_a)
    db_plus, _ = frequency_split(ck.d_b)
    assert np.max(np.abs(da_minus.values)) < 1e-12
    assert np.max(np.abs(db_plus.values)) < 1e-12


def test_charged_single_species():
    g = reference_grid(64, 2)
    cms = ChargedModeSet(
        omegas_a=np.array([2.0 * np.pi * 9 / g.period]), weights_a=np.array([1.0]),
        omegas_b=np.array([], dtype=float), weights_b=np.array([], dtype=float))
    ck = charged_field_kernels(cms, g)
    assert np.max(np.abs(ck.d_b.values)) == 0.0
    theta = half_step(g.n)
    assert np.max(np.abs(ck.d_r.values - theta * ck.d_a.values)) < 1e-15


def test_charged_symmetric_set_antisymmetry():
    # equal particle/antiparticle content: D_R - adjoint(D_R) is the full
    # contraction difference, pointwise
    g = reference_grid(64, 2)
    scale = 2.0 * np.pi / g.period
    cms = ChargedModeSet(
        omegas_a=np.array([5, 9]) * scale, weights_a=np.array([0.8, 0.3]),
        omegas_b=np.array([5, 9]) * scale, weights_b=np.array([0.8, 0.3]))
    ck = charged_field_kernels(cms, g)
    lhs = ck.d_r.values - kernel_adjoint(ck.d_r).values
    rhs = ck.d_a.values - ck.d_b.values
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_charged_rejects_bad_weights():
    with pytest.raises(ValueError):
        ChargedModeSet(omegas_a=np.array([1.0]), weights_a=np.array([0.0]),
                       omegas_b=np.array([]), weights_b=np.array([]))
    with pytest.raises(ValueError):
        ChargedModeSet(omegas_a=np.array([-1.0]), weights_a=np.array([1.0]),
                       omegas_b=np.array([]), weights_b=np.array([]))


@pytest.mark.parametrize("field", ["omegas_a", "weights_a", "omegas_b", "weights_b"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_charged_rejects_non_finite_modes(field, value):
    species = {"omegas_a": [1.0, 2.0], "weights_a": [0.5, 0.5],
               "omegas_b": [1.0], "weights_b": [0.3]}
    species[field] = species[field][:-1] + [value]
    with pytest.raises(ValueError):
        ChargedModeSet(**{name: np.array(v) for name, v in species.items()})


def test_loose_mode_tracks_small_commensurability_jitter():
    # a 1e-5 fractional detuning off the bin keeps the reconstruction chain
    # inside the exploration tolerance; gross off-bin content does not
    n, bin_index = 256, 4
    dt = 2.0 * np.pi * bin_index / n
    g = make_grid(n, dt * (1.0 + 1e-5))
    kers = osc_kernels(P, g, loose=True)
    res = np.max(np.abs(reconstruct(kers.d_r.values, "forward") - kers.d.values))
    assert res < 1e-3

    g_far = make_grid(n, 0.1)                    # far off every bin
    kers_far = osc_kernels(P, g_far, loose=True)
    res_far = np.max(np.abs(reconstruct(kers_far.d_r.values, "forward") - kers_far.d.values))
    assert 1e-3 < res_far < 1.0                  # degraded but bounded
