import json
import tracemalloc

import numpy as np
import pytest

from quantcurv import sphere, transport
from quantcurv.cli import run
from quantcurv.experiments import HAMILTONIAN_LIBRARY, ConfigError, validate_config
from quantcurv.sphere import (
    GRID_LEVEL_MAX,
    ChartFunction,
    SectionSpace,
    compress_generator,
    hamiltonian_from_chart,
    harmonic_real,
    rotation_x,
    rotation_z,
)
from quantcurv.transport import (
    TRANSPORT_STEPS_MAX,
    intertwine_check,
    parallel_transport,
    schrodinger_propagate,
    transport_residuals,
)
from sphere_oracle import eval_batch_reference, generator_apply
from transport_oracle import (
    residual_work,
    stencil_states,
    stored_residuals,
    transport_residuals_reference,
)


@pytest.fixture(scope="module")
def space():
    return SectionSpace(6)


@pytest.fixture(scope="module")
def space16():
    return SectionSpace(16)


def _constant_field(value):
    return hamiltonian_from_chart("const", ChartFunction.monomial(0, 0, coeff=value))


def test_schrodinger_rotation_phases(space):
    # rotation generator is diag(ik), so the flow is diag(e^{ikt})
    t_end = 0.7
    s = schrodinger_propagate(compress_generator(rotation_z(), space), t_end)
    expect = np.diag(np.exp(1j * np.arange(7) * t_end))
    assert np.max(np.abs(s - expect)) < 1e-10


def test_schrodinger_constant_hamiltonian_phase(space):
    # H = c gives the global phase e^{i c N t} and no mixing
    c, t_end = 0.8, 0.5
    s = schrodinger_propagate(compress_generator(_constant_field(c), space), t_end)
    expect = np.exp(1j * c * 6 * t_end) * np.eye(7)
    assert np.max(np.abs(s - expect)) < 1e-10


def test_schrodinger_unitary(space):
    s = schrodinger_propagate(compress_generator(harmonic_real(), space), 1.0)
    assert np.max(np.abs(s.conj().T @ s - np.eye(7))) < 1e-9


@pytest.mark.parametrize("n", [16, 72])
@pytest.mark.parametrize("t_end", [1.0, 2.0])
def test_schrodinger_rotation_is_exact(n, t_end):
    # exp(T B0) with B0 = diag(ik): no integration error at any level or time
    space = SectionSpace(n)
    s = schrodinger_propagate(compress_generator(rotation_z(), space), t_end)
    expect = np.diag(np.exp(1j * np.arange(n + 1) * t_end))
    assert np.max(np.abs(s - expect)) < 1e-12


@pytest.mark.parametrize("n", [6, 16, 72])
def test_schrodinger_matches_eig_exponential(n):
    # unitary, and equal to exp(T B0) from a general eigendecomposition of B0
    space = SectionSpace(n)
    t_end = 2.0
    b0 = compress_generator(harmonic_real(), space)
    s = schrodinger_propagate(b0, t_end)
    w, v = np.linalg.eig(b0)
    expect = (v * np.exp(t_end * w)) @ np.linalg.inv(v)
    assert np.max(np.abs(s.conj().T @ s - np.eye(n + 1))) < 1e-12
    assert np.max(np.abs(s - expect)) < 1e-12


def test_rotation_intertwine_is_the_frame_integration_error(space16):
    # against an exact reference the mismatch is the frame RK4's O(dt^4):
    # halving dt divides it by ~16
    coarse = parallel_transport(rotation_z(), space16, t_end=0.2, dt=2e-3, n_samples=2)
    fine = parallel_transport(rotation_z(), space16, t_end=0.2, dt=1e-3, n_samples=2)
    assert intertwine_check(coarse) / intertwine_check(fine) >= 14.0


def test_transport_rotation_is_exact(space):
    res = parallel_transport(rotation_z(), space, t_end=0.5, dt=2e-3, n_samples=4)
    # moving frame stays inside the holomorphic range up to the RK4 error
    assert res.projector_deviation < 1e-6
    assert res.isometry_defect() < 1e-9
    # transported coefficients match the unitary flow
    dev = intertwine_check(res)
    assert dev < 1e-6


def test_projector_deviation_reads_below_the_gram_floor(space16):
    # a rotation maps the holomorphic range to itself, so F_T C - F_0 is the
    # coefficient mismatch alone and the deviation is the intertwine
    # (3.0e-10 here, measured 1.0e-6 relative apart); taken from Grams as a
    # difference of traces it read 1.4e-8, its rounding floor
    rot = parallel_transport(rotation_z(), space16, t_end=0.1, dt=1e-3, n_samples=2)
    assert rot.projector_deviation == pytest.approx(intertwine_check(rot), rel=1e-3)
    # far above that floor the two forms agree: harmonic_real moves the range
    # off its start, 0.045292031782423497 from Grams
    moved = parallel_transport(harmonic_real(), space16, t_end=0.1, dt=1e-3, n_samples=2)
    assert moved.projector_deviation == pytest.approx(0.045292031782423497, rel=1e-9)


def test_transport_constant_hamiltonian(space):
    c = 0.6
    res = parallel_transport(_constant_field(c), space, t_end=0.5, dt=2e-3, n_samples=4)
    expect = np.exp(1j * c * 6 * 0.5) * np.eye(7)
    dev = np.max(np.abs(res.coeffs - expect))
    assert dev < 1e-8


def test_transport_non_isometric_intertwines(space):
    res = parallel_transport(harmonic_real(), space, t_end=0.5, dt=2e-3, n_samples=4)
    dev = intertwine_check(res)
    assert dev < 1e-3
    assert res.gram_defect < 1e-8


def test_transport_residuals_small(space):
    res = parallel_transport(harmonic_real(), space, t_end=0.5, dt=2e-3, n_samples=4)
    recs = res.residuals
    assert len(recs) == 4
    for rec in recs:
        assert 0.0 < rec["t"] < 0.5
        assert rec["eq_range"] < 1e-5
        assert rec["eq_deriv"] < 1e-5


@pytest.fixture(scope="module")
def transported16(space16):
    """(dt, [(j, stencil), ...]) of a 20-step run with samples at steps 7 and 13."""
    return stencil_states(harmonic_real(), space16, t_end=0.02, dt=1e-3, n_samples=2)


def _with_state(transported, step_offset, edit):
    """The stencils of `transported`, each with its state at offset
    step_offset replaced by edit(z, c, C)."""
    _dt, stencils = transported
    return [
        {**stencil, step_offset: edit(*stencil[step_offset])} for _j, stencil in stencils
    ]


def _coefficient_defect(transported, step_offset, delta):
    _dt, stencils = transported
    _z, _c, coeff = stencils[0][1][0]
    d = coeff.shape[0]
    rng = np.random.default_rng(0)
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _with_state(transported, step_offset, lambda z, c, coeff: (z, c, coeff + delta * e))


_STENCIL_OFFSETS = [m for m, _w in transport._DERIV_STENCIL]


@pytest.mark.parametrize("delta", [1e-6, 1e-3])
@pytest.mark.parametrize("step_offset", _STENCIL_OFFSETS)
def test_residuals_with_defect_match_loewdin_oracle(space16, transported16, step_offset, delta):
    # a defect delta in C at one stencil step makes both residuals ~delta/dt
    # (1.6e-5 to 4.2 here); the Gram form and the orthonormalized oracle then
    # differ by rounding in the cancellation alone, measured <= 1.1e-13
    # absolute (2.5e-11 and 2.6e-14 relative at m = +1) at both deltas
    dt = transported16[0]
    for i, stencil in enumerate(_coefficient_defect(transported16, step_offset, delta)):
        got = transport_residuals(stencil, space16, dt, residual_work(space16))
        ref = transport_residuals_reference(stencil, space16, dt)
        for key in ("eq_range", "eq_deriv"):
            assert ref[key] > 1e-6
            assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12), (key, i)


@pytest.mark.parametrize("step_offset", _STENCIL_OFFSETS)
def test_residuals_grow_linearly_in_a_coefficient_defect(space16, transported16, step_offset):
    # 1000 times the defect gives 1000 times the residuals; the defect-free
    # residual (~7e-12) bends the ratio by <= 4.8e-8 (measured)
    dt = transported16[0]
    small = _coefficient_defect(transported16, step_offset, 1e-6)
    large = _coefficient_defect(transported16, step_offset, 1e-3)
    for i, (s, b) in enumerate(zip(small, large)):
        s, b = (transport_residuals(x, space16, dt, residual_work(space16)) for x in (s, b))
        for key in ("eq_range", "eq_deriv"):
            assert b[key] / s[key] == pytest.approx(1e3, rel=1e-6), (key, i)


@pytest.mark.parametrize("step_offset", [0, 1, -4])
def test_residuals_refuse_a_rank_deficient_frame(space16, transported16, step_offset):
    # at a constant z every frame column is a multiple of the first
    dt = transported16[0]
    stencils = _with_state(
        transported16, step_offset, lambda z, c, coeff: (np.full_like(z, 0.3), c, coeff)
    )
    for stencil in stencils:
        with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
            transport_residuals(stencil, space16, dt, residual_work(space16))
        with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
            transport_residuals_reference(stencil, space16, dt)


def test_residuals_on_another_level_fail_loudly(space, space16, transported16):
    dt, stencils = transported16
    with pytest.raises(ValueError, match=r"level N=16 on 3456 points, the space at level N=6 on"):
        transport_residuals(stencils[0][1], space, dt, residual_work(space))
    # same level, states cut to fewer points than the space's grid
    dt, stencils = stencil_states(rotation_z(), space, t_end=0.02, dt=2e-3, n_samples=1)
    cut = {m: (z[:100], c[:100], coeff) for m, (z, c, coeff) in stencils[0][1].items()}
    with pytest.raises(ValueError, match=r"level N=6 on 100 points, the space at level N=6 on 896"):
        transport_residuals(cut, space, dt, residual_work(space))


@pytest.mark.parametrize(
    ("t_end", "n_samples", "placed"),
    [
        # 20 steps: 8 distinct sample steps whose stencils overlap
        pytest.param(0.02, 10, [4, 5, 7, 9, 11, 13, 15, 16], id="20_steps_10_samples"),
        # 8 steps: the one sample at step 4 reads every step, 0 and 8 included,
        # and all 10 placements collapse onto it
        pytest.param(0.008, 1, [4], id="8_steps_1_sample"),
        pytest.param(0.008, 10, [4], id="8_steps_10_samples"),
        # stencils 4..12 and 12..20 share step 12
        pytest.param(0.024, 2, [8, 16], id="24_steps_2_samples"),
        # stencils 5..13 and 14..22 are adjacent and share no step
        pytest.param(0.027, 2, [9, 18], id="27_steps_2_samples"),
    ],
)
def test_streamed_residuals_equal_the_stored_route(space16, t_end, n_samples, placed):
    # the samples sit at round((j + 1) n_steps / (n_samples + 1)) clamped to
    # [4, n_steps - 4]; streaming drops a state only after the last sample
    # reading it, so every row equals the store-everything route's
    res = parallel_transport(harmonic_real(), space16, t_end=t_end, dt=1e-3, n_samples=n_samples)
    ref = stored_residuals(harmonic_real(), space16, t_end=t_end, dt=1e-3, n_samples=n_samples)
    assert [round(rec["t"] / res.dt) for rec in res.residuals] == placed
    assert res.residuals == ref


def test_transport_memory_does_not_grow_with_the_sample_count(space16):
    # one stencil's states are alive at a time, so 10 samples cost what 2 do,
    # to within one state ((z, c) on 3456 points: 0.11 MB); storing every
    # stencil's states read 5.36 MB at 2 samples and 11.54 MB at 10, the
    # streamed route 5.36 MB at both
    peaks = {}
    for n_samples in (2, 10):
        tracemalloc.start()
        try:
            parallel_transport(harmonic_real(), space16, t_end=0.1, dt=1e-3, n_samples=n_samples)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert abs(peaks[10] - peaks[2]) <= 0.11, peaks
    assert peaks[10] <= 9.0, peaks


def test_transport_holds_three_frame_sized_buffers():
    # the moving frame's rows (2 frames) and conjugate rows (1 frame) are the
    # only frame-sized arrays: the grid frame is formed into the rows at the
    # end, and the residual is summed in the centre frame's rows; the peak
    # read 4.99 frames with a stored grid frame and a residual buffer, 3.99
    # without (33 rows of 10,880 points at N = 32, numpy 2.4)
    space = SectionSpace(32)
    frame_bytes = space.dim * space.grid.points.size * 16
    tracemalloc.start()
    try:
        parallel_transport(harmonic_real(), space, t_end=8e-3, dt=1e-3, n_samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * frame_bytes, peak / frame_bytes


@pytest.mark.parametrize(("ham_f", "bound"), [(rotation_z, 1e-14), (harmonic_real, 1e-11)])
def test_generator_drift_is_rounding(space16, ham_f, bound):
    # max ||B(t) - B_c||_F / ||B_c||_F over all 103 builds, measured 4.6e-16
    # (rotation_z) and 2.7e-13 (harmonic_real); the bounds leave a margin
    # of ~20x and ~40x
    ham = ham_f()
    res = parallel_transport(ham, space16, t_end=0.1, dt=1e-3, n_samples=2)
    b_c = compress_generator(ham, space16)
    first = np.linalg.norm(res.generator - b_c) / np.linalg.norm(b_c)
    assert first <= res.generator_drift <= bound


def test_midpoint_weights_are_the_cubic_through_four_steps():
    # nodes at steps n - 2, n - 1, n, n + 1 in units of dt, read at n + 1/2;
    # the weights are sixteenths, so every sum below is exact in floating point
    nodes = (-2.0, -1.0, 0.0, 1.0)
    for p in range(4):
        assert sum(w * t**p for w, t in zip(transport._MIDPOINT_WEIGHTS, nodes)) == 0.5**p
    # on t^4 the cubic is off by its error term -(5/128) dt^4 B'''' with B'''' = 24
    quartic = sum(w * t**4 for w, t in zip(transport._MIDPOINT_WEIGHTS, nodes))
    assert 0.5**4 - quartic == -(5.0 / 128.0) * 24.0


def test_interpolated_midpoint_matches_a_built_one(space16):
    # the step builds B at step states only; here each midpoint state is also
    # built, and the cubic through the four step builds around it must agree.
    # Over 100 harmonic_real steps the gap measured at most 5.6e-16 of ||B||,
    # far below the builds' own drift from B_c (2.7e-13), so the cubic adds
    # nothing to the rounding; the bound leaves a margin of ~18x
    frame = transport._MovingFrame(harmonic_real(), space16, dt=1e-3)
    builds = [frame.generator_matrix()]
    worst = 0.0
    for _ in range(20):
        frame.advance_half()
        built = frame.generator_matrix()
        frame.advance_half()
        builds.append(frame.generator_matrix())
        if len(builds) >= 4:
            cubic = sum(w * b for w, b in zip(transport._MIDPOINT_WEIGHTS, builds[-4:]))
            worst = max(worst, np.linalg.norm(cubic - built) / np.linalg.norm(built))
    assert 0.0 < worst <= 1e-14


def test_transport_refines_with_dt(space):
    # quartic convergence of the endpoint coefficients in dt
    ref = parallel_transport(harmonic_real(), space, t_end=0.25, dt=5e-4, n_samples=2)
    a = parallel_transport(harmonic_real(), space, t_end=0.25, dt=4e-3, n_samples=2)
    b = parallel_transport(harmonic_real(), space, t_end=0.25, dt=2e-3, n_samples=2)
    ea = np.max(np.abs(a.coeffs - ref.coeffs))
    eb = np.max(np.abs(b.coeffs - ref.coeffs))
    assert ea / eb > 8.0


def test_transport_result_fields(space):
    res = parallel_transport(rotation_z(), space, t_end=0.3, dt=2e-3, n_samples=3)
    assert res.N == 6
    assert res.dim == 7
    assert res.t_end == pytest.approx(0.3)
    assert res.coeffs.shape == (7, 7)
    assert res.min_coeff_sv > 0.9
    # one residual row per sample, at distinct interior times
    assert len(res.residuals) == len({rec["t"] for rec in res.residuals}) == 3
    for rec in res.residuals:
        assert set(rec) == {"t", "eq_range", "eq_deriv"}
        assert 0.0 < rec["t"] < 0.3


def test_gram_defect_covers_every_state(space):
    # the end state is the last one the generator is built at, so the
    # recorded maximum cannot be below its Gram defect
    res = parallel_transport(harmonic_real(), space, t_end=0.1, dt=2e-3, n_samples=2)
    end_defect = float(np.max(np.abs(res.gram_end - np.eye(res.dim))))
    assert end_defect > 0.0
    assert res.gram_defect >= end_defect - 1e-15


def _chart_hamiltonians():
    hams = [make() for make in HAMILTONIAN_LIBRARY.values()]
    return hams + [_constant_field(0.7)]


@pytest.mark.parametrize("n", [6, 16])
def test_generator_matrix_matches_per_column_images(n):
    # reference: each column G e_k evaluated from its symbolic image at the
    # flowed points; the transport code only evaluates a and q there
    space = SectionSpace(n)
    for ham in _chart_hamiltonians():
        frame = transport._MovingFrame(ham, space, dt=2e-3)
        images = [
            generator_apply(ham, ChartFunction.monomial(k), n) for k in range(space.dim)
        ]
        for _ in range(3):
            z, c = frame.state
            f = space.frame_at(z, c)
            weighted = (space.sqrtw * c)[:, None]
            g_cols = weighted * np.column_stack(
                [img.eval(z) / space.norms[k] for k, img in enumerate(images)]
            )
            fh = f.conj().T
            ref = np.linalg.solve(fh @ f, fh @ g_cols)
            got = frame.generator_matrix()
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), ham.name
            frame.advance_half()
            frame.advance_half()


@pytest.mark.parametrize("n", [6, 16, GRID_LEVEL_MAX])
def test_build_product_matches_frame_at_rows_and_column_images(n):
    # the build sweeps unnormalized rows U_k = c sqrtw z^k (~1e-155 on the
    # outer ring at N = 72) and scales only [F*F, F*(G F)]; the reference
    # takes F from `frame_at` and each column of G F on its own,
    # c sqrtw (k a z^(k-1) + q z^k) / ||z^k|| from the powers z**k.  After one
    # step the flows of rotation_x and rotation_y at N = 72 carry the outer
    # ring from |z| = 134 to 154, where q z + N a cancels: a sweep running
    # w = q z + k a up from k = 0 reads 6.9e-13 there, down from k = N 2.5e-14
    space = SectionSpace(n)
    for ham in _chart_hamiltonians():
        frame = transport._MovingFrame(ham, space, dt=2e-3)
        for _ in range(2):
            z, c = frame.state
            f = space.frame_at(z, c).T
            av, qv = eval_batch_reference([frame.a, frame.q], z)
            g = np.empty_like(f)
            for k in range(space.dim):
                image = qv * z**k + (k * av * z ** (k - 1) if k else 0.0)
                g[k] = image * (space.sqrtw * c) / space.norms[k]
            ref = np.concatenate([f.conj() @ f.T, f.conj() @ g.T], axis=1)
            del g
            got = frame.products()
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), ham.name
            frame.advance_half()
            frame.advance_half()


def test_build_allocates_no_frame_sized_buffer(space16):
    # the bound is the tracemalloc peak of ten harmonic_real builds at N = 16
    # when G F was formed from the normalized frame rows in a row loop
    # (638,904 bytes, 11.55 rows of 3456 complex points, numpy 2.4); the
    # sweep writes into the frame's own buffers and eval_batch writes each
    # function's first term and scales it in place (583,448 bytes)
    frame = transport._MovingFrame(harmonic_real(), space16, dt=1e-3)
    frame.generator_matrix()
    tracemalloc.start()
    try:
        for _ in range(10):
            frame.generator_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 638_904, peak


def test_generator_at_start_is_compressed_generator(space16):
    for ham in _chart_hamiltonians():
        res = parallel_transport(ham, space16, t_end=0.016, dt=2e-3, n_samples=1)
        ref = compress_generator(ham, space16)
        assert np.max(np.abs(res.generator - ref)) <= 1e-12 * np.max(np.abs(ref)), ham.name


def test_stepping_evaluates_two_chart_functions(space, monkeypatch):
    # the moving-frame generator evaluates a and q only, once per build:
    # at t = 0, at every step, and at the midpoints of the first two steps,
    # whose midpoint cubic lacks the builds before them: n + 3 builds
    seen = []
    real_eval_batch = transport.eval_batch

    def counting_eval_batch(cfs, z):
        seen.append(len(cfs))
        return real_eval_batch(cfs, z)

    monkeypatch.setattr(transport, "eval_batch", counting_eval_batch)
    n_steps = 10
    parallel_transport(harmonic_real(), space, t_end=n_steps * 2e-3, dt=2e-3, n_samples=1)
    assert seen == [2] * (n_steps + 3)


def test_each_characteristic_state_is_evaluated_once(space, monkeypatch):
    # the RK4 stages of characteristic_rhs are the only sphere-level
    # evaluations; the first stage of a half step reuses the a and q values
    # of a generator built at its state, so 3 of 4 stages remain.  A step
    # state is always built; an interpolated midpoint is not, so the half
    # step from it takes all 4: 6 in the first two steps, 7 in the others
    seen = []
    real_eval_batch = sphere.eval_batch

    def counting_eval_batch(cfs, z):
        seen.append(len(cfs))
        return real_eval_batch(cfs, z)

    monkeypatch.setattr(sphere, "eval_batch", counting_eval_batch)
    n_steps = 10
    parallel_transport(harmonic_real(), space, t_end=n_steps * 2e-3, dt=2e-3, n_samples=1)
    assert seen == [2] * (7 * n_steps - 2)


def _result_arrays(res):
    return {
        name: getattr(res, name)
        for name in ("coeffs", "schrodinger", "generator", "gram_end")
    }


def test_repeated_transport_shares_no_buffer_memory(space):
    # the moving frame rewrites its frame buffers at every build; nothing
    # a result holds may alias them or another array of the result
    first = parallel_transport(harmonic_real(), space, t_end=0.03, dt=2e-3, n_samples=2)
    second = parallel_transport(harmonic_real(), space, t_end=0.03, dt=2e-3, n_samples=2)
    arrays = [_result_arrays(first), _result_arrays(second)]
    assert arrays[0].keys() == arrays[1].keys()
    for name, a in arrays[0].items():
        assert np.array_equal(a, arrays[1][name]), name
    assert first.gram_defect == second.gram_defect
    assert first.generator_drift == second.generator_drift
    assert first.projector_deviation == second.projector_deviation
    assert first.min_coeff_sv == second.min_coeff_sv
    assert first.residuals == second.residuals
    named = [(f"{i}:{name}", a) for i, d in enumerate(arrays) for name, a in d.items()]
    for j, (name_a, a) in enumerate(named):
        for name_b, b in named[j + 1 :]:
            assert not np.shares_memory(a, b), (name_a, name_b)


def test_flow_leaving_chart_fails_loudly(space16):
    # rotation_x moves points like z^2 near the far pole and carries the
    # outer grid ring through it before t = 0.1
    with pytest.raises(ValueError, match=r"rotation_x at N=16: the flow left the chart after t="):
        parallel_transport(rotation_x(), space16, t_end=0.1, dt=1e-3)


def test_frame_refusal_inside_the_chart_stays_a_linalg_error(space16):
    # at t_end = 0.048 the flow stays in the chart, but the frame around the
    # last sample (step 44) is ill-conditioned; at t_end = 0.1 the same
    # stencil is reached first and the run still reports the flow leaving
    # the chart (test above), since a refusal is raised only at the end,
    # naming the Hamiltonian, the level and the sample time, with its cause
    with pytest.raises(np.linalg.LinAlgError) as info:
        parallel_transport(rotation_x(), space16, t_end=0.048, dt=1e-3, n_samples=10)
    assert str(info.value).startswith(
        "transport of rotation_x at N=16: the frame at t=0.044 is refused "
        "(frame Gram matrix is ill-conditioned"
    )
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_short_rotation_x_transport_intertwines(space16):
    res = parallel_transport(rotation_x(), space16, t_end=0.02, dt=1e-3, n_samples=2)
    assert intertwine_check(res) <= 1e-6


def _transport_entry(out_path, **params):
    base = {
        "N": 16,
        "dt": 1e-3,
        "t_end": 0.1,
        "cases": [{"hamiltonian": "rotation_x", "tol": 1e-6}],
    }
    return {
        "experiment": "schrodinger-intertwine",
        "parameters": dict(base, **params),
        "output_path": str(out_path),
    }


def test_cli_flow_leaving_chart_exits_one_without_csv(tmp_path, capsys):
    out_path = tmp_path / "transport.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "experiments": [_transport_entry(out_path)]}))
    assert run(str(path)) == 1
    err = capsys.readouterr().err
    assert "rotation_x at N=16: the flow left the chart" in err
    assert not out_path.exists()


def test_step_count_bound_at_validation():
    # validation only: the rejected run is never built
    def validate(**params):
        validate_config({"seed": 1, "experiments": [_transport_entry("t.csv", **params)]})

    validate(t_end=1.0, dt=1e-3)  # criterion 8
    validate(t_end=2.0, dt=2.0 / TRANSPORT_STEPS_MAX)
    with pytest.raises(ConfigError, match="exceeds"):
        validate(t_end=2.0, dt=2.0 / (TRANSPORT_STEPS_MAX + 1))
    with pytest.raises(ConfigError, match="exceeds"):
        validate(N=72, t_end=2.0, dt=1e-6)


def test_cli_reports_the_generator_drift(tmp_path):
    out_path = tmp_path / "transport.csv"
    entry = _transport_entry(
        out_path, N=6, t_end=0.02, cases=[{"hamiltonian": "harmonic_real", "tol": 1e-3}]
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "experiments": [entry]}))
    assert run(str(path)) == 0
    lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
    header, row = lines[0].split(","), lines[1].split(",")
    assert header.index("generator_drift") == header.index("max_eq_deriv") + 1
    assert 0.0 < float(row[header.index("generator_drift")]) <= 1e-11
    # the frame health follows passed, report-only as the drift is
    assert header[-4:] == ["passed", "gram_defect", "isometry_defect", "projector_deviation"]
    assert row[-4] == "true"
    for value in row[-3:-1]:
        assert 0.0 < float(value) <= 1e-9
    # harmonic_real moves the holomorphic range off its start: the column is
    # the run's projector_deviation, to the bit
    res = parallel_transport(
        harmonic_real(), SectionSpace(6), t_end=0.02, dt=1e-3
    )
    assert float(row[-1]) == res.projector_deviation > 1e-3


def test_cli_reports_the_step_it_integrated_with(tmp_path):
    # t_end/dt = 4 is below the 8-step floor of parallel_transport: dt halves
    out_path = tmp_path / "transport.csv"
    entry = _transport_entry(
        out_path, N=4, t_end=0.004, cases=[{"hamiltonian": "rotation_z", "tol": 1e-6}]
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "experiments": [entry]}))
    assert run(str(path)) == 0
    lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
    header, row = lines[0].split(","), lines[1].split(",")
    assert float(row[header.index("dt")]) == 0.0005
