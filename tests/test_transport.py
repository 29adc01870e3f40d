import json

import numpy as np
import pytest

from quantcurv import sphere, transport
from quantcurv.cli import run
from quantcurv.experiments import HAMILTONIAN_LIBRARY, ConfigError, validate_config
from quantcurv.sphere import (
    ChartFunction,
    SectionSpace,
    SphereGrid,
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
from sphere_oracle import generator_apply


@pytest.fixture(scope="module")
def space():
    return SectionSpace(6, SphereGrid.for_level(6))


@pytest.fixture(scope="module")
def space16():
    return SectionSpace(16, SphereGrid.for_level(16))


def _constant_field(value):
    return hamiltonian_from_chart("const", ChartFunction.monomial(0, 0, coeff=value))


def test_schrodinger_rotation_phases(space):
    # rotation generator is diag(ik), so the flow is diag(e^{ikt})
    t_end = 0.7
    s = schrodinger_propagate(rotation_z(), space, t_end, dt=1e-3)
    expect = np.diag(np.exp(1j * np.arange(7) * t_end))
    assert np.max(np.abs(s - expect)) < 1e-10


def test_schrodinger_constant_hamiltonian_phase(space):
    # H = c gives the global phase e^{i c N t} and no mixing
    c, t_end = 0.8, 0.5
    s = schrodinger_propagate(_constant_field(c), space, t_end, dt=1e-3)
    expect = np.exp(1j * c * 6 * t_end) * np.eye(7)
    assert np.max(np.abs(s - expect)) < 1e-10


def test_schrodinger_unitary(space):
    s = schrodinger_propagate(harmonic_real(), space, 1.0, dt=1e-3)
    assert np.max(np.abs(s.conj().T @ s - np.eye(7))) < 1e-9


def test_transport_rotation_is_exact(space):
    res = parallel_transport(rotation_z(), space, t_end=0.5, dt=2e-3, n_samples=4)
    # moving frame stays inside the holomorphic range up to the RK4 error
    assert res.projector_deviation() < 1e-6
    assert res.isometry_defect() < 1e-9
    # transported coefficients match the unitary flow
    dev = intertwine_check(res)
    assert dev < 1e-6


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
    recs = transport_residuals(res, space)
    assert len(recs) == 4
    for rec in recs:
        assert 0.0 < rec["t"] < 0.5
        assert rec["eq_range"] < 1e-5
        assert rec["eq_deriv"] < 1e-5


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
    assert len(res.sample_steps) == len(set(res.sample_steps)) == 3
    # one (z, c, C) record per full step that a residual stencil reads
    stencil = (0, 1, -1, 2, -2, 4, -4)
    assert set(res.snapshots) == {j + m for j in res.sample_steps for m in stencil}
    assert all(len(rec) == 3 and rec[2].shape == (7, 7) for rec in res.snapshots.values())


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
    space = SectionSpace(n, SphereGrid.for_level(n))
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


def test_generator_at_start_is_compressed_generator(space16):
    for ham in _chart_hamiltonians():
        res = parallel_transport(ham, space16, t_end=0.016, dt=2e-3, n_samples=1)
        ref = compress_generator(ham, space16)
        assert np.max(np.abs(res.generator - ref)) <= 1e-12 * np.max(np.abs(ref)), ham.name


def test_stepping_evaluates_two_chart_functions(space, monkeypatch):
    # the moving-frame generator evaluates a and q only, once per build
    seen = []
    real_eval_batch = transport.eval_batch

    def counting_eval_batch(cfs, z):
        seen.append(len(cfs))
        return real_eval_batch(cfs, z)

    monkeypatch.setattr(transport, "eval_batch", counting_eval_batch)
    n_steps = 10
    parallel_transport(harmonic_real(), space, t_end=n_steps * 2e-3, dt=2e-3, n_samples=1)
    assert seen == [2] * (2 * n_steps + 1)


def test_each_characteristic_state_is_evaluated_once(space, monkeypatch):
    # the RK4 stages of characteristic_rhs are the only sphere-level
    # evaluations; the first stage of each half step reuses the a and q
    # values of the generator built at that state, so 3 of 4 stages remain
    seen = []
    real_eval_batch = sphere.eval_batch

    def counting_eval_batch(cfs, z):
        seen.append(len(cfs))
        return real_eval_batch(cfs, z)

    monkeypatch.setattr(sphere, "eval_batch", counting_eval_batch)
    n_steps = 10
    parallel_transport(harmonic_real(), space, t_end=n_steps * 2e-3, dt=2e-3, n_samples=1)
    assert seen == [2] * (6 * n_steps)


def _result_arrays(res):
    named = {
        name: getattr(res, name)
        for name in ("coeffs", "schrodinger", "generator", "gram_end", "cross_end")
    }
    for step, record in res.snapshots.items():
        named.update({f"snapshot {step}[{i}]": a for i, a in enumerate(record)})
    return named


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
    assert first.min_coeff_sv == second.min_coeff_sv
    named = [(f"{i}:{name}", a) for i, d in enumerate(arrays) for name, a in d.items()]
    for j, (name_a, a) in enumerate(named):
        for name_b, b in named[j + 1 :]:
            assert not np.shares_memory(a, b), (name_a, name_b)


def test_flow_leaving_chart_fails_loudly(space16):
    # rotation_x moves points like z^2 near the far pole and carries the
    # outer grid ring through it before t = 0.1
    with pytest.raises(ValueError, match=r"rotation_x at N=16: the flow left the chart after t="):
        parallel_transport(rotation_x(), space16, t_end=0.1, dt=1e-3)


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
