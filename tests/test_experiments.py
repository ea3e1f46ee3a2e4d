import os
import re
import sys
import traceback
from dataclasses import MISSING, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import igalump.experiments as experiments
from igalump.assembly import jacobi_rescale
from igalump.dynamics import l2_error
from igalump.experiments import (_KEYS, RUNNERS, ConfigError,
                                 ExperimentConfig, _assemble,
                                 _assemble_trimmed_at,
                                 _lambda_max, _lambda_min, _located,
                                 _mass_variant, _spectrum_rows, _top_pairs,
                                 _write_csv, apply_overrides, parse_config,
                                 run_bandwidth_report, run_convergence,
                                 run_deflate_ratio, run_simulate,
                                 run_spectrum, run_trimmed_sweep)
from igalump.linalg import (FactorizedOperator, _mass_factor,
                            banded_cholesky, dense_generalized_eig)
from igalump.spectral import LanczosResult, lanczos
from spectrum_csv import read_spectrum_csv


def write_cfg(tmp_path, text, name='exp.cfg'):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ parsing

def test_parse_full_config(tmp_path):
    path = write_cfg(tmp_path, '\n'.join([
        '# comment',
        'kind = spectrum',
        'geometry = quarter_annulus',
        'geometry.rin = 1',
        'geometry.rout = 2.5',
        'p = 3',
        'subdivisions = 6, 4',
        'pencils = M P1 H2',
        'seed = 7',
        'out = results',
        'nquad = 6',
        'dirichlet = true',
    ]))
    cfg = parse_config(path)
    assert cfg.kind == 'spectrum'
    assert cfg.geometry == 'quarter_annulus'
    assert cfg.geometry_params == {'rin': 1, 'rout': 2.5}
    assert cfg.subdivisions == (6, 4)
    assert cfg.pencils == ('M', 'P1', 'H2')
    assert cfg.seed == 7 and cfg.nquad == 6 and cfg.dirichlet is True


def test_kind_defaults_fill_missing_keys(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, 'kind = trimmed-sweep\n'))
    assert cfg.geometry == 'rotated_square'
    assert cfg.nangles == 40
    assert cfg.pencils == ('M', 'P1', 'P2', 'rowsum')
    cfg = parse_config(write_cfg(tmp_path, 'kind = deflate-ratio\n', 'b.cfg'))
    assert cfg.ranks == (10, 20, 40)
    assert cfg.geometry == 'plate_hole'


def test_explicit_keys_beat_kind_defaults(tmp_path):
    cfg = parse_config(write_cfg(
        tmp_path, 'kind = trimmed-sweep\nnangles = 5\npencils = P1\n'))
    assert cfg.nangles == 5 and cfg.pencils == ('P1',)


@pytest.mark.parametrize('text,fragment', [
    ('geometry = unit_square\n', 'missing required key "kind"'),
    ('kind = what\n', 'unknown experiment kind'),
    ('kind = spectrum\nbogus = 1\n', 'unknown key'),
    ('kind = spectrum\np = abc\n', 'expected int'),
    ('kind = spectrum\np = 2\np = 3\n', 'duplicate key'),
    ('kind = spectrum\njust a line\n', 'expected key = value'),
    ('kind = spectrum\npencils = Q1\n', 'bad pencil label'),
    ('kind = convergence\nlevels = 2\n', 'at least 3 refinement levels'),
    ('kind = spectrum\ngeometry = nosuch\n', 'unknown geometry id'),
    ('kind = simulate\ngeometry = unit_square\n', 'plate_hole'),
    ('kind = trimmed-sweep\ngeometry = unit_square\n', 'rotated_square'),
    ('kind = spectrum\nsafeguard = 1.5\n', 'safeguard'),
    ('kind = spectrum\ndirichlet = maybe\n', 'expected bool'),
    ('kind = spectrum\ngeometry = rotated_square\nranks = 3\n',
     'not available on trimmed spectra'),
])
def test_bad_configs_rejected(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(write_cfg(tmp_path, text))


def test_errors_carry_line_numbers(tmp_path):
    path = write_cfg(tmp_path, 'kind = spectrum\n\np = zero\n')
    with pytest.raises(ConfigError, match=r':3:'):
        parse_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match='cannot read config'):
        parse_config('/nonexistent/exp.cfg')


def test_overrides(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, 'kind = spectrum\nseed = 1\n'))
    cfg2 = apply_overrides(cfg, out='elsewhere', seed=9, threads=2)
    assert (cfg2.out, cfg2.seed, cfg2.threads) == ('elsewhere', 9, 2)
    assert cfg.seed == 1  # original untouched
    with pytest.raises(ConfigError, match='--seed'):
        apply_overrides(cfg, seed=-1)


def _typed(value, typ):
    """value is a typ, or for tuple[t, ...] a tuple of t values."""
    if getattr(typ, '__origin__', None) is tuple:
        return type(value) is tuple and all(_typed(v, typ.__args__[0])
                                            for v in value)
    return type(value) is typ


@pytest.mark.parametrize('key', [key for key, f in _KEYS.items()
                                 if f.default is not MISSING])
def test_key_defaults_are_typed_and_pass_their_check(key):
    # every run checks every key, so the default each kind runs with must
    # pass there, or a file that never sets the key would fail on it
    f = _KEYS[key]
    by_kind = f.metadata['by_kind']
    assert set(by_kind) <= set(f.metadata['reads'] or RUNNERS), by_kind
    for kind in RUNNERS:
        value = by_kind.get(kind, f.default)
        # None leaves k and nquad unset
        assert (value is None and f.default is None
                or _typed(value, f.type)), (kind, value)
        assert not f.metadata['fault'](value, kind), (kind, value)


# -------------------------------------------------------------------- output

def test_write_csv_round_trips_exactly_and_rewrites_same_bytes(tmp_path):
    cfg = ExperimentConfig(kind='spectrum', out=str(tmp_path / 'new'))
    spectra = [('M', np.array([0.5, 1.0 / 3.0, np.pi])),
               ('P1', np.array([0.1, 1e-300]))]
    path = _write_csv(cfg, 'spectrum.csv', 'k,lambda,label',
                      _spectrum_rows(spectra))
    again = read_spectrum_csv(path)
    assert [label for label, _ in again] == ['M', 'P1']
    for (_, a), (_, b) in zip(spectra, again):
        np.testing.assert_array_equal(a, b)
    first = open(path, 'rb').read()
    _write_csv(cfg, 'spectrum.csv', 'k,lambda,label', _spectrum_rows(spectra))
    assert open(path, 'rb').read() == first
    row = _write_csv(cfg, 'row.csv', 'a,b,c,d',
                     [(np.int64(3), 0.1, np.float64(1e-300), 'x')])
    assert open(row).read() == 'a,b,c,d\n3,0.10000000000000001,1e-300,x\n'


# ------------------------------------------------------------------ spectrum

def spectrum_cfg(tmp_path, extra=''):
    return parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = stretched_square\np = 2\n'
        'subdivisions = 6\npencils = M P1 P2\nout = %s\n%s'
        % (tmp_path / 'out', extra))))


def test_spectrum_curves_ordered_below_consistent(tmp_path):
    files = run_spectrum(spectrum_cfg(tmp_path))
    assert any(f.endswith('spectrum.csv') for f in files)
    assert any(f.endswith('spectrum.svg') for f in files)
    spectra = dict(read_spectrum_csv(files[0]))
    n = len(spectra['M'])
    assert len(spectra['P1']) == n
    tol = 1e-9 * np.abs(spectra['M']) + 1e-9
    assert np.all(spectra['P1'] <= spectra['P2'] + tol)
    assert np.all(spectra['P2'] <= spectra['M'] + tol)


def test_spectrum_lanczos_mode_matches_dense_top(tmp_path):
    dense = dict(read_spectrum_csv(
        run_spectrum(spectrum_cfg(tmp_path))[0]))['P1']
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = stretched_square\np = 2\n'
        'subdivisions = 6\npencils = P1\nk = 4\nout = %s\n'
        % (tmp_path / 'lz')), 'lz.cfg'))
    top = dict(read_spectrum_csv(run_spectrum(cfg)[0]))['P1']
    assert top == pytest.approx(dense[-4:], rel=1e-3)


def test_spectrum_scaled_curve_plateaus_at_cutoff(tmp_path):
    cfg = spectrum_cfg(tmp_path, 'ranks = 6\n')
    spectra = dict(read_spectrum_csv(run_spectrum(cfg)[0]))
    base, scaled = spectra['P1'], spectra['P1+r6']
    n = len(base)
    floor = 1e-9 * base[-1]  # the free pencil has a zero mode
    assert scaled[:n - 6] == pytest.approx(base[:n - 6], rel=1e-8, abs=floor)
    assert scaled[n - 6:] == pytest.approx(base[n - 7], rel=1e-8)


def test_spectrum_rerun_is_byte_identical(tmp_path):
    cfg = spectrum_cfg(tmp_path)
    first = [open(f, 'rb').read() for f in run_spectrum(cfg)]
    second = [open(f, 'rb').read() for f in run_spectrum(cfg)]
    assert first == second


def test_spectrum_dense_cap_needs_k(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = unit_square\np = 2\n'
        'subdivisions = 70\nout = %s\n' % (tmp_path / 'big'))))
    with pytest.raises(ConfigError, match='dense oracle cap'):
        run_spectrum(cfg)


def test_spectrum_k_above_system_size_is_config_error(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = unit_square\np = 2\n'
        'subdivisions = 4\nk = 1000\nout = %s\n' % (tmp_path / 'k'))))
    with pytest.raises(ConfigError,
                       match=r'exp\.cfg:5: k = 1000 exceeds the system '
                             r'size n = 36'):
        run_spectrum(cfg)


def test_unconverged_eigensolve_names_pencil_sizes_and_worst_residual(
        monkeypatch):
    res = LanczosResult(values=np.ones(3), vectors=np.eye(50, 3),
                        residuals=np.array([1e-10, 0.25, 3e-3]),
                        converged=np.array([True, False, True]),
                        n_iter=40, n_matvec=40, n_restarts=2)
    monkeypatch.setattr('igalump.experiments.lanczos',
                        lambda *args, **kwargs: res)
    K = sp.identity(50, format='csr')
    with pytest.raises(ValueError) as info, _located('pencil P1'):
        _top_pairs(ExperimentConfig(kind='spectrum'), K, K, 3,
                   _mass_factor(K))
    msg = str(info.value)
    assert msg.startswith('pencil P1: eigensolver failed to converge ('), msg
    for part in ('pencil P1', 'n = 50', 'k = 3', 'residual 0.25'):
        assert part in msg, msg
    assert '[' not in msg


def test_trimmed_spectrum_writes_one_csv_per_angle(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = rotated_square\np = 2\n'
        'subdivisions = 6\nnangles = 2\npencils = M P1\nout = %s\n'
        % (tmp_path / 'trim'))))
    files = run_spectrum(cfg)
    per_angle = [f for f in files if 'spectrum_ang' in f]
    assert len(per_angle) == 2
    for f in per_angle:
        spectra = dict(read_spectrum_csv(f))
        assert set(spectra) == {'M', 'P1'}


def test_multipatch_consistent_mass_runs_through_lanczos(tmp_path):
    # the glued pair has no tensor structure: its mass is factored at the
    # measured bandwidth
    common = ('geometry = plate_hole_2patch\np = 2\nsubdivisions = 4\n'
              'pencils = M\n')
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\n%sk = 3\nout = %s\n'
        % (common, tmp_path / 'spec')), 'spec.cfg'))
    top = dict(read_spectrum_csv(run_spectrum(cfg)[0]))['M']
    pair = _assemble(cfg)
    dense = dense_generalized_eig(pair.K, pair.M)[0]
    np.testing.assert_allclose(top, dense[-3:], rtol=1e-6)
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = deflate-ratio\n%sranks = 2\nout = %s\n'
        % (common, tmp_path / 'ratio')), 'ratio.cfg'))
    rows = np.genfromtxt(run_deflate_ratio(cfg)[0], delimiter=',',
                         names=True)
    assert np.all(rows['rank'] == 2) and np.all(np.isfinite(rows['ratio']))


# --------------------------------------------------------------- convergence

def test_convergence_rates_and_signs(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = convergence\ngeometry = unit_square\np = 2\nlevels = 3\n'
        'subdivisions = 4\npencils = M P1\nout = %s\n' % (tmp_path / 'conv'))))
    files = run_convergence(cfg)
    rows = np.genfromtxt(files[0], delimiter=',', names=True)
    assert rows['h'][0] == pytest.approx(0.25)
    assert rows['h'][-1] == pytest.approx(0.0625)
    # consistent mass overshoots the reference, lumped undershoots
    assert np.all(rows['M'] <= 0)
    assert np.all(rows['P1'] >= 0)
    slopes = dict(np.genfromtxt(files[1], delimiter=',', names=True,
                                dtype=None, encoding='utf-8'))
    assert slopes['M'] >= 3.5           # expected rate 2p = 4
    assert 1.7 <= slopes['P1'] <= 2.3


def square_cfg(tmp_path, subdivisions):
    return parse_config(write_cfg(tmp_path, (
        'kind = convergence\ngeometry = unit_square\np = 3\nlevels = 3\n'
        'subdivisions = %d\npencils = M P1 H2\n' % subdivisions)))


def eigenvalue_at(end, K, Mvar):
    """end(K, Mvar): _lambda_max steps with a factor its caller makes."""
    if end is _lambda_max:
        return _lambda_max(K, Mvar, _mass_factor(Mvar))
    return _lambda_min(K, Mvar)


def eigenvalue_without_superlu(tmp_path, monkeypatch, end):
    """end on the 4,225-dof square, with SuperLU patched to fail."""
    cfg = square_cfg(tmp_path, 64)
    pair = _assemble(cfg)
    n = pair.K.shape[0]
    assert n == 4225
    # the references factor through SuperLU, before it is patched out
    if end is _lambda_min:
        want = spla.eigsh(pair.K.mat, k=1, M=pair.M.mat, sigma=0.0,
                          v0=np.full(n, n ** -0.5),
                          return_eigenvectors=False)[0]
    else:
        want = spla.eigsh(pair.K.mat, k=1, M=pair.M.mat, which='LA',
                          v0=np.random.default_rng(0).standard_normal(n),
                          return_eigenvectors=False)[0]

    def no_superlu(*args, **kwargs):
        raise AssertionError('SuperLU was called')

    # eigsh looks splu up in its own module
    for module in (spla, sys.modules[spla.eigsh.__module__]):
        monkeypatch.setattr(module, 'splu', no_superlu)
    got = eigenvalue_at(end, pair.K, pair.M)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_smallest_eigenvalue_shift_inverts_without_superlu(tmp_path,
                                                          monkeypatch):
    eigenvalue_without_superlu(tmp_path, monkeypatch, _lambda_min)


def test_largest_eigenvalue_is_certified_without_superlu(tmp_path,
                                                        monkeypatch):
    eigenvalue_without_superlu(tmp_path, monkeypatch, _lambda_max)


@pytest.mark.parametrize('label, subdivisions',
                         [('M', 32), ('P1', 32), ('H2', 32), ('P1', 64)],
                         ids=['M', 'P1', 'H2', 'P1-above-cap'])
def test_dense_extreme_eigenvalue_matches_oracle(tmp_path, monkeypatch,
                                                 label, subdivisions):
    cfg = square_cfg(tmp_path, subdivisions)
    pair = _assemble(cfg)
    Mvar = _mass_variant(cfg, pair, label)
    n = pair.K.shape[0]
    if n <= experiments.DENSE_CAP:
        w = dense_generalized_eig(pair.K, Mvar)[0]
        want = {_lambda_min: w[0], _lambda_max: w[-1]}
    else:
        # above the cap the oracle is the library Lanczos, run tight
        res = lanczos(pair.K, _mass_factor(Mvar), Mvar, 4, tol=1e-10,
                      seed=0)
        assert np.all(res.converged)
        want = {_lambda_max: res.values[0]}

    # both ends go through ARPACK at every size
    def no_other_solver(*args, **kwargs):
        raise AssertionError('another eigensolver was called')

    for name in ('_dense_eigenvalues', 'lanczos'):
        monkeypatch.setattr(experiments, name, no_other_solver)
    for end, value in want.items():
        got = eigenvalue_at(end, pair.K, Mvar)
        assert got == pytest.approx(value, rel=1e-12, abs=0), end.__name__


@pytest.mark.parametrize('end', [_lambda_min, _lambda_max],
                         ids=['smallest', 'largest'])
def test_both_ends_of_a_one_dof_pencil(tmp_path, end):
    # ARPACK refuses k >= n; a 1 x 1 pencil has the one eigenvalue K00/M00
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = convergence\ngeometry = unit_square\np = 2\nlevels = 3\n'
        'subdivisions = 1\npencils = M\n')))
    pair = _assemble(cfg)
    K, M = pair.K.mat.toarray(), pair.M.mat.toarray()
    assert K.shape == (1, 1)
    got = eigenvalue_at(end, pair.K, pair.M)
    assert got == pytest.approx(K[0, 0] / M[0, 0], rel=1e-14, abs=0)


@pytest.mark.parametrize('end', [_lambda_min, _lambda_max],
                         ids=['smallest', 'largest'])
@pytest.mark.parametrize('subdivisions', [8, 64])
def test_extreme_eigenvalue_refuses_an_indefinite_mass(tmp_path, end,
                                                       subdivisions):
    # a positive diagonal passes the diagonal check; the 2 x 2 minor on
    # dofs 0 and 1 is M00 M11 - 4 M00 M11 < 0, which only a factor sees:
    # _lambda_min's own, or for _lambda_max the one its caller makes
    cfg = square_cfg(tmp_path, subdivisions)
    pair = _assemble(cfg)
    Mvar = pair.M.mat.tolil()
    Mvar[0, 1] = Mvar[1, 0] = 2 * np.sqrt(Mvar[0, 0] * Mvar[1, 1])
    Mvar = Mvar.tocsr()
    assert np.all(Mvar.diagonal() > 0)
    with pytest.raises(ValueError, match='not positive definite'):
        eigenvalue_at(end, pair.K, Mvar)


def _trimmed_at_zero(label, subdivisions):
    # a pencil of the trimmed sweep at angle 0, where the mesh has the
    # square's symmetries. ARPACK started from the constant vector misses
    # the top of P1 at 16 subdivisions, and of the committed config's
    # rowsum pencil (20, a double top eigenvalue) when the assembly sums
    # its cut and inside elements in canonical order
    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                    'scripts', 'configs', 'trimmed_sweep.cfg'))
    cfg = replace(cfg, subdivisions=(subdivisions,))
    pair = _assemble_trimmed_at(cfg, 0.0)
    return jacobi_rescale(pair.K, _mass_variant(cfg, pair, label))


@pytest.mark.parametrize('label, subdivisions', [('rowsum', 20), ('P1', 16)])
def test_largest_eigenvalue_of_a_symmetric_trimmed_pencil(label,
                                                          subdivisions):
    A, B = _trimmed_at_zero(label, subdivisions)
    want = dense_generalized_eig(A, B)[0][-1]
    got = _lambda_max(A, B, _mass_factor(B))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_largest_eigenvalue_refuses_a_value_below_the_top(monkeypatch):
    A, B = _trimmed_at_zero('rowsum', 20)
    w = dense_generalized_eig(A, B)[0]
    # ARPACK converging to the third-largest, below the double top
    monkeypatch.setattr(spla, 'eigsh', lambda *a, **kw: w[-3:-2])
    lam, sigma = ('%.10g' % v for v in (w[-3], w[-3] * (1 + 1e-9)))
    with pytest.raises(ValueError, match='largest eigenvalue %s misses the '
                       'top of the spectrum: an eigenvalue lies at or above '
                       '%s$' % (re.escape(lam), re.escape(sigma))):
        _lambda_max(A, B, _mass_factor(B))


def test_largest_eigenvalue_solves_with_the_callers_factor(tmp_path,
                                                          monkeypatch):
    cfg = square_cfg(tmp_path, 8)
    pair = _assemble(cfg)
    Mvar = _mass_variant(cfg, pair, 'P1')
    want = dense_generalized_eig(pair.K, Mvar)[0][-1]
    base, solves = _mass_factor(Mvar), []

    def counted(rhs):
        solves.append(rhs)
        return base.solve(rhs)

    def no_mass_factor(A, bandwidth):
        assert A is not Mvar, 'a factor of Mvar was made'
        return banded_cholesky(A, bandwidth)

    monkeypatch.setattr('igalump.linalg.banded_cholesky', no_mass_factor)
    got = _lambda_max(pair.K, Mvar, FactorizedOperator(base.n, counted))
    assert solves
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def nquad_square(tmp_path, nquad):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = convergence\ngeometry = unit_square\np = 2\nlevels = 3\n'
        'subdivisions = 64\nnquad = %d\npencils = M\n' % nquad)))
    pair = _assemble(cfg)
    assert pair.K.shape[0] == 4096 > experiments.DENSE_CAP
    return cfg, pair


def test_smallest_eigenvalue_refuses_a_singular_stiffness(tmp_path):
    # one-point quadrature leaves K zero-energy modes; its banded Cholesky
    # passes on roundoff pivots and shift-invert returns a roundoff value
    cfg, pair = nquad_square(tmp_path, 1)
    with pytest.raises(ValueError, match='is not positive'):
        _lambda_min(pair.K, pair.M)


def test_smallest_eigenvalue_refuses_a_zero_mass_diagonal(tmp_path):
    cfg, pair = nquad_square(tmp_path, 3)
    keep = sp.diags(np.r_[0.0, np.ones(pair.K.shape[0] - 1)])
    Mvar = (keep @ _mass_variant(cfg, pair, 'P1').mat @ keep).tocsr()
    with np.errstate(all='raise'):
        with pytest.raises(ValueError, match='mass-side matrix is not '
                           'positive definite: diagonal entry 0 is 0'):
            _lambda_min(pair.K, Mvar)


# ------------------------------------------------------------------ simulate

def test_simulate_shared_and_critical_steps(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 6\npencils = M P1\n'
        'tspan = 0.3\nout = %s\n' % (tmp_path / 'sim'))))
    files = run_simulate(cfg)
    names = [f.rsplit('/', 1)[1] for f in files]
    assert 'sim_M_shared.csv' in names and 'sim_P1_critical.csv' in names

    def rows(name):
        f = files[names.index(name)]
        return np.genfromtxt(f, delimiter=',', names=True)

    shared_m, shared_p = rows('sim_M_shared.csv'), rows('sim_P1_shared.csv')
    assert shared_m['t'] == pytest.approx(shared_p['t'])
    # lumping lowers lambda_max, so the P1 critical step is at least as big
    crit_p = rows('sim_P1_critical.csv')
    assert crit_p['t'][1] >= shared_m['t'][1] - 1e-15
    assert np.all(np.isfinite(shared_p['l2_error']))
    assert shared_p['l2_error'].max() < 1.0


def test_simulate_measures_each_history_in_one_batch(tmp_path, monkeypatch):
    # one l2_error call per written error history, not one per row
    calls = []

    def counted(grid, coeffs, exact, t=None):
        calls.append(np.shape(coeffs))
        return l2_error(grid, coeffs, exact, t=t)

    monkeypatch.setattr(experiments, 'l2_error', counted)
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 4\npencils = M P1\n'
        'tspan = 1\nout = %s\n' % (tmp_path / 'sim'))))
    files = run_simulate(cfg)
    csvs = [f for f in files if f.rsplit('/', 1)[1].startswith('sim_')]
    assert len(calls) == len(csvs) == 4
    rows = [len(np.loadtxt(f, delimiter=',', skiprows=1, ndmin=2))
            for f in csvs]
    assert [shape[0] for shape in calls] == rows and min(rows) > 1


@pytest.mark.parametrize('pencils', ['M P1 P2', 'P1 rowsum'])
def test_simulate_factors_each_mass_once(tmp_path, monkeypatch, pencils):
    # the factor behind a pencil's lambda_max also drives its stepping; the
    # consistent mass's one factor also projects the initial data. Each
    # lambda_max also factors its certificate sigma Mvar - K
    factored = []

    def counted(A, bandwidth):
        certificate = any(f.name == '_lambda_max'
                          for f in traceback.extract_stack())
        factored.append((A, certificate))
        return banded_cholesky(A, bandwidth)

    monkeypatch.setattr('igalump.linalg.banded_cholesky', counted)
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 4\npencils = %s\n'
        'tspan = 0.05\nout = %s\n' % (pencils, tmp_path / 'sim'))))
    run_simulate(cfg)
    # the consistent mass's, then one per lumped pencil's lambda_max, and
    # one certificate per lambda_max: M's and each lumped pencil's
    lumped = sum(p != 'M' for p in cfg.pencils)
    masses = [A for A, certificate in factored if not certificate]
    assert len(masses) == 1 + lumped
    assert len(factored) - len(masses) == 1 + lumped
    assert len({id(A) for A, _ in factored}) == len(factored)


# -------------------------------------------------------------- deflate-ratio

def test_deflate_ratio_crosses_break_even(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = deflate-ratio\nsubdivisions = 8 4\np = 2\nranks = 4 8\n'
        'out = %s\n' % (tmp_path / 'ratio'))))
    files = run_deflate_ratio(cfg)
    rows = np.genfromtxt(files[0], delimiter=',', names=True)
    for r in (4, 8):
        sel = rows[rows['rank'] == r]
        ratios = sel['ratio']
        assert ratios[0] > 1.0 and ratios[-1] < 1.0
        assert np.all(np.diff(ratios) < 0)
        assert np.all(sel['N_s'] <= sel['N_w'])


def test_deflate_ratio_explicit_horizons(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = deflate-ratio\nsubdivisions = 8 4\np = 2\nranks = 4\n'
        'horizons = 50 100\nout = %s\n' % (tmp_path / 'ratio2'))))
    rows = np.genfromtxt(run_deflate_ratio(cfg)[0], delimiter=',', names=True)
    assert list(rows['T']) == [50.0, 100.0]


# -------------------------------------------------------------- trimmed sweep

def test_trimmed_sweep_rowsum_best_for_cfl(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = trimmed-sweep\nnangles = 2\nsubdivisions = 6\np = 2\n'
        'pencils = M P1 rowsum\nout = %s\n' % (tmp_path / 'trim'))))
    files = run_trimmed_sweep(cfg)
    rows = np.genfromtxt(files[0], delimiter=',', names=True,
                         dtype=None, encoding='utf-8')
    assert len(rows) == 2 * 3
    assert np.all(rows['spd'] == 1)
    by = {(r['angle'], r['label']): r['lambda_max'] for r in rows}
    for angle in {r['angle'] for r in rows}:
        assert by[(angle, 'rowsum')] <= by[(angle, 'P1')] + 1e-9
        assert by[(angle, 'P1')] <= by[(angle, 'M')] + 1e-9


def test_trimmed_sweep_threads_do_not_change_output(tmp_path):
    text = ('kind = trimmed-sweep\nnangles = 2\nsubdivisions = 6\np = 2\n'
            'pencils = M P1\nout = %s\n')
    cfg1 = parse_config(write_cfg(tmp_path, text % (tmp_path / 'a'), 'a.cfg'))
    cfg2 = apply_overrides(
        parse_config(write_cfg(tmp_path, text % (tmp_path / 'b'), 'b.cfg')),
        threads=2)
    out1 = [open(f, 'rb').read() for f in run_trimmed_sweep(cfg1)]
    out2 = [open(f, 'rb').read() for f in run_trimmed_sweep(cfg2)]
    assert out1 == out2


SWEEP = 'nangles = 2\nsubdivisions = 6\np = 2\npencils = M P1 P2 rowsum\n'


def test_trimmed_sweep_lambda_max_matches_full_spectra(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = trimmed-sweep\n%sout = %s\n' % (SWEEP, tmp_path / 'trim')),
        'trim.cfg'))
    rows = np.genfromtxt(run_trimmed_sweep(cfg)[0], delimiter=',',
                         names=True, dtype=None, encoding='utf-8')
    spec = parse_config(write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = rotated_square\n%sout = %s\n'
        % (SWEEP, tmp_path / 'spec')), 'spec.cfg'))
    per_angle = [f for f in run_spectrum(spec) if 'spectrum_ang' in f]
    assert len(rows) == 2 * 4 and len(per_angle) == 2
    for idx, angle in enumerate(sorted(set(rows['angle']))):
        pair = _assemble_trimmed_at(cfg, angle)
        spectra = dict(read_spectrum_csv(per_angle[idx]))
        for row in rows[rows['angle'] == angle]:
            Mvar = _mass_variant(cfg, pair, row['label'])
            want = dense_generalized_eig(*jacobi_rescale(pair.K, Mvar))[0][-1]
            assert row['lambda_max'] == pytest.approx(want, rel=1e-12, abs=0)
            assert spectra[row['label']][-1] == pytest.approx(
                want, rel=1e-12, abs=0)


def test_trimmed_sweep_never_computes_a_full_spectrum(tmp_path, monkeypatch):
    def full_spectrum(*args):
        raise AssertionError('the sweep reports only lambda_max')

    monkeypatch.setattr(experiments, 'dense_generalized_eig', full_spectrum)
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = trimmed-sweep\n%sout = %s\n' % (SWEEP, tmp_path / 'trim'))))
    rows = np.genfromtxt(run_trimmed_sweep(cfg)[0], delimiter=',',
                         names=True, dtype=None, encoding='utf-8')
    assert len(rows) == 2 * 4 and np.all(np.isfinite(rows['lambda_max']))


# ----------------------------------------------------------- bandwidth report

def test_bandwidth_report_predictions_match(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, (
        'kind = bandwidth-report\nsubdivisions = 4\np = 2\n'
        'out = %s\n' % (tmp_path / 'bw'))))
    rows = np.genfromtxt(run_bandwidth_report(cfg)[0], delimiter=',',
                         names=True, dtype=None, encoding='utf-8')
    assert list(rows['label']) == ['M', 'H1', 'H2', 'H3']
    assert np.all(rows['equal'] == 1)
    assert rows['measured'][-1] == 0  # deepest level is diagonal
