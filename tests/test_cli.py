import ast
import contextlib
import glob
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import igalump
from igalump import experiments
from igalump.cli import main
from igalump.experiments import _KEYS, RUNNERS


def write_cfg(tmp_path, text, name='exp.cfg'):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spectrum_exit_zero_and_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = unit_square\np = 2\nsubdivisions = 4\n'
        'pencils = M P1\nout = %s\n' % (tmp_path / 'out')))
    assert main(['spectrum', '--config', cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(l.startswith('wrote ') for l in lines)
    assert (tmp_path / 'out' / 'spectrum.csv').exists()


def test_spectrum_with_k_equal_to_system_size_exits_zero(tmp_path, capsys):
    # every pair of the 36-dof Neumann square, the kernel mode included
    cfg = write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = unit_square\np = 2\nsubdivisions = 4\n'
        'k = 36\nout = %s\n' % (tmp_path / 'out')))
    assert main(['spectrum', '--config', cfg]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(tmp_path / 'out' / 'spectrum.csv', delimiter=',',
                         names=True, dtype=None, encoding='utf-8')
    for label in ('M', 'P1'):
        lam = rows['lambda'][rows['label'] == label]
        assert len(lam) == 36
        assert abs(lam[0]) <= 1e-8 * lam[-1]


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, 'kind = spectrum\ngeometry = nosuch\n')
    assert main(['spectrum', '--config', cfg]) == 2
    assert 'config error' in capsys.readouterr().err


def test_kind_mismatch_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, 'kind = spectrum\n')
    assert main(['convergence', '--config', cfg]) == 2
    assert 'declares kind' in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path, capsys):
    # break-even horizons shorter than a single stable step: rank 5 of the
    # 6-dof plate deflates down to its smallest eigenvalue
    cfg = write_cfg(tmp_path, (
        'kind = deflate-ratio\nsubdivisions = 2 1\np = 1\nranks = 5\n'
        'out = %s\n' % (tmp_path / 'r')))
    assert main(['deflate-ratio', '--config', cfg]) == 3
    assert 'numerical failure' in capsys.readouterr().err


def test_missed_largest_eigenvalue_exits_three(tmp_path, capsys,
                                               monkeypatch):
    # an eigsh that stops below the top of the spectrum: the Cholesky
    # certificate behind lambda_max refuses it, naming the pencil
    real = experiments.spla.eigsh
    monkeypatch.setattr(experiments.spla, 'eigsh',
                        lambda *a, **kw: 0.5 * real(*a, **kw))
    cfg = write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 5\npencils = P1\n'
        'tspan = 0.3\nout = %s\n' % (tmp_path / 'sim')))
    assert main(['simulate', '--config', cfg]) == 3
    err = capsys.readouterr().err
    assert re.search(r'numerical failure: pencil M: largest eigenvalue '
                     r'\S+ misses the top of the spectrum: an eigenvalue '
                     r'lies at or above \S+\n', err), err


@pytest.mark.parametrize('via', ['config', 'flag'])
@pytest.mark.parametrize('under', [False, True], ids=['file', 'under-file'])
def test_unwritable_output_directory_exits_two(tmp_path, capsys, via, under):
    # out names an existing file, or a path under one: neither can be made
    blocker = tmp_path / 'taken'
    blocker.write_text('')
    out = str(blocker / 'sub' if under else blocker)
    cfg = write_cfg(tmp_path, 'kind = bandwidth-report\nsubdivisions = 3\n'
                    'p = 2\n' + ('out = %s\n' % out if via == 'config' else ''))
    argv = ['bandwidth-report', '--config', cfg]
    assert main(argv + (['--out', out] if via == 'flag' else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith('config error: ') and out in err, err
    assert 'Traceback' not in err


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    # a Latin-1 comment: the file cannot be read as a config, which is not a
    # numerical failure
    path = tmp_path / 'latin1.cfg'
    path.write_bytes(b'kind = bandwidth-report\n# caf\xe9\n')
    assert main(['bandwidth-report', '--config', str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith('config error: cannot read config %s: ' % path), err
    assert 'Traceback' not in err


def test_memory_error_exits_three(tmp_path, capsys, monkeypatch):
    # a runner whose arrays do not fit; no real allocation is attempted, as
    # an overcommitting system may grant it
    def exhausted(cfg):
        raise MemoryError('Unable to allocate 16.0 TiB for an array')

    monkeypatch.setitem(RUNNERS, 'spectrum', exhausted)
    cfg = write_cfg(tmp_path, 'kind = spectrum\nout = %s\n' % (tmp_path / 'o'))
    assert main(['spectrum', '--config', cfg]) == 3
    err = capsys.readouterr().err
    assert err == ('numerical failure: out of memory: Unable to allocate '
                   '16.0 TiB for an array\n'), err


# every runner kind at a toy size, spectrum on both of its routes (the dense
# one with a deflated curve), the simulation over a few steps and the trimmed
# sweep on a thread pool
_TOY_RUNS = [
    ('spectrum', 'geometry = stretched_square\np = 2\nsubdivisions = 4\n'
     'pencils = M P1 rowsum\nranks = 1\n'),
    ('spectrum', 'geometry = unit_square\np = 2\nsubdivisions = 4\nk = 3\n'),
    ('convergence', 'p = 2\nsubdivisions = 1\nlevels = 3\npencils = M P1\n'),
    ('simulate', 'p = 2\nsubdivisions = 4\npencils = M P1\ntspan = 0.3\n'),
    ('deflate-ratio', 'subdivisions = 8 4\np = 2\nranks = 4\n'),
    ('trimmed-sweep', 'subdivisions = 6\np = 2\nnangles = 2\npencils = P1\n'
     'threads = 2\n'),
    ('bandwidth-report', 'subdivisions = 3\np = 2\n'),
]


def _profiled_main(tmp_path, runs, profile):
    """Exit code of each (kind, body) config run through main with profile
    set, in the threads that the run starts too."""
    codes = []
    for i, (kind, body) in enumerate(runs):
        cfg = write_cfg(tmp_path, 'kind = %s\n%sout = %s\n'
                        % (kind, body, tmp_path / str(i)), '%d.cfg' % i)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            codes.append(main([kind, '--config', cfg]))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return codes


def test_every_runner_kind_exits_zero_under_a_profiler(tmp_path, capsys):
    # a profiler holds references that a plain run does not, such as the
    # bound method of each C call, so no runner may depend on a refcount
    threads = set()

    def profile(frame, event, arg):
        if event == 'call':
            threads.add(threading.get_ident())

    assert {kind for kind, _ in _TOY_RUNS} == set(RUNNERS)
    codes = _profiled_main(tmp_path, _TOY_RUNS, profile)
    err = capsys.readouterr().err
    assert codes == [0] * len(_TOY_RUNS), (codes, err)
    # the sweep's workers ran under the profiler too
    assert len(threads) > 1


# src functions that neither the toy runs nor the faulty configs reach, each
# with the acceptance criterion that pins it or what else reaches it
_UNREACHED = {
    'dynamics.stability_boundary': 'criterion 09',
    'dynamics.stability_boundary.<locals>.is_stable': 'criterion 09',
    'experiments._key': 'runs at import time, building the config fields',
    'experiments._below': 'runs at import time, building the config fields',
    'geometry.MultipatchTopology.interface_globals': 'criterion 11',
    'geometry.patch_grid': 'catalog geometry grid_4x4, which the glue tests '
                           'of test_geometry build',
    'geometry.patch_grid.<locals>.pid': 'catalog geometry grid_4x4',
    'linalg.schur_saddle_factor': 'criterion 11',
    'linalg.schur_saddle_factor.<locals>.apply_solve': 'criterion 11',
    'linalg.woodbury_solve': 'criterion 06, through scaled_mass_solve',
    'lumping.HierBandedMatrix.toarray': 'criteria 03 and 11',
    'spectral.cfl_gain': 'criterion 09',
    'spectral.local_stiffness_scale': 'criterion 11',
    'spectral.scaled_mass_solve': 'criteria 06 and 09',
    'spectral.split_zero_modes': 'criterion 12',
}


def _defined(node, prefix):
    """Qualified names of the functions and methods under an ast node, as
    their code objects' co_qualname spells them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _defined(child, prefix + child.name + '.<locals>.')
        elif isinstance(child, ast.ClassDef):
            yield from _defined(child, prefix + child.name + '.')
        else:
            yield from _defined(child, prefix)


def test_every_src_function_is_reached_or_listed(tmp_path, capsys):
    # code that no run reaches goes away unless a criterion pins it: every
    # function of src/igalump is called by a toy run or a faulty config, or
    # is listed in _UNREACHED with its reason
    src = os.path.dirname(igalump.__file__)
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == 'call' and os.path.dirname(code.co_filename) == src:
            called.add('%s.%s' % (os.path.basename(code.co_filename)[:-3],
                                  code.co_qualname))

    faulty = [(kind, body) for _, kind, body, _ in _FAULTY_ROWS]
    codes = _profiled_main(tmp_path, _TOY_RUNS + faulty, profile)
    capsys.readouterr()
    assert codes[:len(_TOY_RUNS)] == [0] * len(_TOY_RUNS)
    assert set(codes[len(_TOY_RUNS):]) <= {2, 3}
    defined = set()
    for path in glob.glob(os.path.join(src, '*.py')):
        with open(path, encoding='utf-8') as fh:
            defined.update(_defined(ast.parse(fh.read()), '%s.' % os.path
                                    .basename(path)[:-3]))
    unreached = defined - called
    assert unreached == set(_UNREACHED), sorted(unreached ^ set(_UNREACHED))


def test_out_and_seed_flags_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        'kind = spectrum\ngeometry = unit_square\np = 2\nsubdivisions = 4\n'
        'pencils = M\nout = %s\nseed = 3\n' % (tmp_path / 'ignored')))
    other = tmp_path / 'flagged'
    assert main(['spectrum', '--config', cfg, '--out', str(other),
                 '--seed', '5']) == 0
    capsys.readouterr()
    assert (other / 'spectrum.csv').exists()
    assert not (tmp_path / 'ignored').exists()


def test_rerun_byte_identical_through_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        'kind = bandwidth-report\nsubdivisions = 3\np = 2\nout = %s\n'
        % (tmp_path / 'bw')))
    assert main(['bandwidth-report', '--config', cfg]) == 0
    first = (tmp_path / 'bw' / 'bandwidth.csv').read_bytes()
    assert main(['bandwidth-report', '--config', cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / 'bw' / 'bandwidth.csv').read_bytes() == first


def test_simulate_csv_has_error_column(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 5\npencils = P1\n'
        'tspan = 2.0\nout = %s\n' % (tmp_path / 'sim')))
    assert main(['simulate', '--config', cfg]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(tmp_path / 'sim' / 'sim_P1_shared.csv',
                         delimiter=',', names=True)
    assert set(rows.dtype.names) == {'t', 'norm', 'l2_error'}
    assert rows['t'][0] == 0.0


def test_simulate_runs_on_an_anisotropic_mesh(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        'kind = simulate\np = 2\nsubdivisions = 6 4\npencils = M P1\n'
        'tspan = 0.3\nout = %s\n' % (tmp_path / 'sim')))
    assert main(['simulate', '--config', cfg]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(tmp_path / 'sim' / 'sim_P1_shared.csv',
                         delimiter=',', names=True)
    assert np.all(np.isfinite(rows['l2_error']))
    assert rows['l2_error'].max() < 1.0


# configs that each fail with a message naming the fault: a config error
# (exit 2) or a numerical failure (exit 3). Each row opens with a slug; its
# test id is kind-body-slug, so adding a row renames no other. The slugs
# names0 to names34 are the index suffixes pytest once generated, kept so
# that the rows' ids stay what earlier runs recorded.
_FAULTY_ROWS = [
    ('names0', 'trimmed-sweep', 'geometry = rotated_square\n'
     'geometry.half_side = 0.001\nsubdivisions = 4\nnangles = 3\n',
     ('exp.cfg:2:', 'angle 0,', 'half_side 0.001', 'n_active = 0')),
    # the centre of the trim square, named beside its half side, at the
    # first geometry.* line when the file leaves geometry at its default
    ('off-square-centre', 'trimmed-sweep',
     'geometry.cx = 2\nsubdivisions = 4\nnangles = 1\n',
     ('config error', 'exp.cfg:2:', 'angle 0, cx 2, cy 0.5, half_side 0.35',
      'n_active = 0')),
    ('names1', 'spectrum', 'geometry = quarter_annulus\ngeometry.rin = -1\n',
     ('exp.cfg:2:', 'geometry', 'rin=-1')),
    ('names2', 'spectrum', 'geometry = quarter_annulus\ngeometry.rin = 3\n'
     'geometry.rout = 1\n', ('exp.cfg:2:', 'geometry', 'rin=3', 'rout=1')),
    # |det J| overflows: a non-finite jacobian is refused before the solve
    ('overflowing-jacobian', 'spectrum', 'geometry = quarter_annulus\n'
     'geometry.rout = 1e300\np = 1\nsubdivisions = 1\n',
     ('config error', 'exp.cfg:2: geometry quarter_annulus, rout 1e+300: '
      'non-finite jacobian on the quadrature grid',)),
    ('names3', 'spectrum', 'geometry = magnet\ngeometry.thickness = 0\n',
     ('exp.cfg:2:', 'geometry', 'thickness')),
    # a valid but vanishing thickness leaves det J below the cut-off
    ('vanishing-thickness', 'spectrum',
     'geometry = magnet\ngeometry.thickness = 1e-300\n',
     ('config error', 'exp.cfg:2: geometry magnet, thickness 1e-300: '
      'singular jacobian on the quadrature grid',)),
    ('names4', 'spectrum', 'geometry = twisted_box\ngeometry.npatches = 0\n',
     ('exp.cfg:2:', 'geometry', 'npatches')),
    ('names5', 'convergence', 'dirichlet = false\n',
     ('exp.cfg:2:', 'dirichlet = false', 'Dirichlet conditions')),
    ('names6', 'spectrum', 'subdivisions = 4\nk = 1000\n',
     ('config error', 'exp.cfg:3:', 'k = 1000', 'n = 36')),
    # a key the run does not read
    ('names7', 'spectrum', 'horizons = 5\ntspan = 3\nlevels = 9\n',
     ('config error', "exp.cfg:2: key 'horizons'")),
    ('names8', 'convergence', 'k = 3\n',
     ('config error', "exp.cfg:2: key 'k'")),
    ('names9', 'simulate', 'density = nonseparable\ndirichlet = true\n',
     ('config error', "exp.cfg:2: key 'density'")),
    ('names10', 'deflate-ratio', 'k = 3\n',
     ('config error', "exp.cfg:2: key 'k'")),
    ('names11', 'trimmed-sweep', 'dirichlet = true\n',
     ('config error', "exp.cfg:2: key 'dirichlet'")),
    ('names12', 'bandwidth-report', 'safeguard = 0.5\n',
     ('config error', "exp.cfg:2: key 'safeguard'")),
    ('names13', 'spectrum', 'geometry = rotated_square\nk = 3\n',
     ('config error', "exp.cfg:3: key 'k'")),
    ('names14', 'spectrum', 'geometry = rotated_square\ndirichlet = true\n',
     ('config error', "exp.cfg:3: key 'dirichlet'")),
    ('names15', 'spectrum', 'nangles = 3\n',
     ('config error', "exp.cfg:2: key 'nangles'")),
    ('names16', 'deflate-ratio', 'pencils = P1 P2\n',
     ('config error', 'exp.cfg:2: deflate-ratio reads one pencil')),
    ('names17', 'deflate-ratio', 'subdivisions = 8 4\np = 2\nranks = 4\n'
     'horizons = 1e-9\n',
     ('config error', 'exp.cfg:5:', 'rank 4', 'T = 1e-09', 'dt = ')),
    # |sin(xy)| + x + y + 1 turns negative on the plate (x in [-4, 0])
    ('names18', 'convergence', 'geometry = plate_hole\nsubdivisions = 3 4\n'
     'p = 3\npencils = M\n',
     ('config error', 'exp.cfg (default density):', 'density nonseparable is',
      '<= 0 at (', 'geometry plate_hole')),
    ('names19', 'spectrum', 'geometry = plate_hole\ndensity = nonseparable\n',
     ('config error', 'exp.cfg:3:', 'density nonseparable is', '<= 0 at (',
      'geometry plate_hole')),
    # one-point quadrature leaves the p = 2 mass singular or indefinite
    ('names20', 'convergence', 'subdivisions = 2\np = 2\nnquad = 1\n'
     'levels = 3\npencils = P1 M\n',
     ('numerical failure: reference level, subdivisions (16, 16), pencil M: '
      'smallest eigenvalue', 'is not positive')),
    ('names21', 'spectrum', 'geometry = unit_square\nsubdivisions = 4\n'
     'p = 2\nnquad = 1\n',
     ('numerical failure: pencil M: mass-side matrix is not positive '
      'definite',)),
    ('names22', 'deflate-ratio', 'subdivisions = 4\np = 2\nnquad = 1\n',
     ('numerical failure: pencil P1: matrix is not positive definite',)),
    # the one-eigenvalue solve's own Cholesky factorization refuses a lumped
    # and the consistent mass alike
    ('names23', 'trimmed-sweep', 'subdivisions = 6\np = 2\nnquad = 1\n'
     'nangles = 2\npencils = P1\n',
     ('numerical failure: angle 0, pencil P1: mass-side matrix is not '
      'positive definite',)),
    ('names24', 'trimmed-sweep', 'subdivisions = 6\np = 2\nnquad = 1\n'
     'nangles = 2\npencils = M\n',
     ('numerical failure: angle 0, pencil M: mass-side matrix is not '
      'positive definite',)),
    # the Lanczos route of spectrum
    ('names25', 'spectrum', 'geometry = unit_square\nsubdivisions = 4\n'
     'p = 2\nnquad = 1\nk = 3\n',
     ('numerical failure: pencil M: matrix is not positive definite',)),
    # the consistent mass projects the initial data before the pencil loop
    ('names26', 'simulate', 'p = 3\nsubdivisions = 4\nnquad = 1\n'
     'pencils = M P1\ntspan = 0.5\n',
     ('numerical failure: pencil M: matrix is not positive definite',)),
    # a band index past a piece's block count, on a glued and a trimmed pair
    ('names27', 'spectrum', 'geometry = plate_hole_2patch\np = 2\n'
     'subdivisions = 2\npencils = M P9\n',
     ('config error', 'exp.cfg:5: pencil P9: band index out of range')),
    ('names28', 'trimmed-sweep', 'subdivisions = 4\nnangles = 2\n'
     'pencils = M P9\n',
     ('config error', 'exp.cfg:4: pencil P9: band index out of range')),
    # a float key, each part of a float list and a geometry.* value must be
    # finite
    ('names29', 'simulate', 'subdivisions = 2\ntspan = inf\n',
     ('config error', "exp.cfg:3: expected a finite number, got 'inf'")),
    ('names30', 'deflate-ratio', 'subdivisions = 4 2\nranks = 1\n'
     'horizons = 1 inf\n',
     ('config error', "exp.cfg:4: expected a finite number, got 'inf'")),
    ('names31', 'spectrum', 'geometry = twisted_box\nsubdivisions = 1\n'
     'geometry.total_angle = nan\n',
     ('config error', "exp.cfg:4: expected a finite number, got 'nan'")),
    ('names32', 'trimmed-sweep', 'geometry = rotated_square\n'
     'subdivisions = 4\nnangles = 1\ngeometry.cx = nan\n',
     ('config error', "exp.cfg:5: expected a finite number, got 'nan'")),
    # lambda_cut = lambda_n: no rank breaks even, so no default horizons
    ('names33', 'deflate-ratio', 'geometry = unit_square\np = 1\n'
     'subdivisions = 1\npencils = rowsum\nranks = 1\n',
     ('config error', 'exp.cfg (default horizons):', 'ranks 1',
      'lambda_cut = lambda_n = 4', 'set horizons')),
    ('names34', 'deflate-ratio', 'ranks = ,\n',
     ('config error', 'exp.cfg:2: deflate-ratio needs at least one rank')),
]


@pytest.mark.parametrize('kind, body, names', [
    pytest.param(kind, body, names, id='%s-%s-%s' % (kind, body, slug))
    for slug, kind, body, names in _FAULTY_ROWS])
def test_faulty_config_exits_with_located_message(tmp_path, capsys, recwarn,
                                                  kind, body, names):
    cfg = write_cfg(tmp_path, 'kind = %s\n%sout = %s\n'
                    % (kind, body, tmp_path / 'o'))
    assert main([kind, '--config', cfg]) in (2, 3)
    err = capsys.readouterr().err
    assert 'Traceback' not in err
    assert not (tmp_path / 'o').exists()
    for name in names:
        assert name in err, (name, err)
    # the runner names a pencil once, the helpers below it not again
    assert not re.search(r'(pencil \w+)\b.*\1\b', err), err
    # the fault is refused before numpy warns about it
    assert not [str(w.message) for w in recwarn]


@pytest.mark.parametrize('kind, body, names', [
    ('bandwidth-report', 'geometry = plate_hole_2patch\n',
     ('exp.cfg:2:', 'bandwidth structure needs a single tensor patch')),
    ('convergence', 'geometry = grid_4x4\n',
     ('exp.cfg:2:', 'convergence studies run on a single patch')),
    ('spectrum', 'ranks = 2\nk = 3\n',
     ('exp.cfg:2:', 'scaled-pencil curves need the dense route; drop k')),
    # hierarchical levels stop at the geometry's dimension
    ('convergence', 'pencils = M H3\n',
     ('exp.cfg:2:', 'pencil H3: level out of range')),
])
def test_static_config_errors_stop_before_assembly(tmp_path, capsys,
                                                    monkeypatch, kind, body,
                                                    names):
    def no_assembly(*args, **kwargs):
        raise AssertionError('assembled before the config was checked')

    for name in ('assemble_single_patch', 'assemble_multipatch'):
        monkeypatch.setattr(experiments, name, no_assembly)
    cfg = write_cfg(tmp_path, 'kind = %s\n%sout = %s\n'
                    % (kind, body, tmp_path / 'o'))
    assert main([kind, '--config', cfg]) == 2
    err = capsys.readouterr().err
    for name in ('config error',) + names:
        assert name in err, (name, err)


_GEOMETRIES_2D = ('unit_square', 'stretched_square', 'quarter_annulus',
                  'plate_hole', 'plate_hole_2patch', 'rotated_square',
                  'nosuch')
_TRIM_AND_MAP_PARAMS = (('half_side', '0.3'), ('half_side', '0.001'),
                        ('cx', '0.4'), ('cx', 'nan'), ('rin', '-1'),
                        ('rout', '2'))


@st.composite
def generated_configs(draw):
    """(kind, config lines) with bounded sizes, valid or not.

    Every key drawn is one the kind reads on the drawn geometry, so the
    configs reach the runners rather than stopping at the key check.
    """
    kind = draw(st.sampled_from(sorted(RUNNERS)))
    # 3D geometries stay out of convergence: its reference level refines
    # each direction 16-fold
    geoms = _GEOMETRIES_2D + (() if kind == 'convergence'
                              else ('unit_cube', 'twisted_box'))
    geometry = draw(st.none() | st.sampled_from(geoms))
    geo = _KEYS['geometry']
    trimmed = (geometry or geo.metadata['by_kind'].get(kind, geo.default)) \
        == 'rotated_square'
    reads = {key for key, f in _KEYS.items()
             if f.metadata['reads'] is None or kind in f.metadata['reads']} \
        - ({'k', 'ranks', 'dirichlet'} if trimmed else {'nangles'})
    ints = lambda lo, hi: st.integers(lo, hi).map(str)
    words = lambda pool, n: st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=n).map(' '.join)
    optional = {
        'p': ints(1, 3),
        'k': ints(1, 40),
        'levels': st.sampled_from(['2', '3']),
        'pencils': words(('M', 'rowsum', 'P1', 'P2', 'H1', 'H2', 'Q'), 3),
        # ',' is an empty list
        'ranks': st.lists(ints(1, 10), max_size=3).map(
            lambda v: ' '.join(v) or ','),
        'horizons': words(('1e-9', '1', '10', 'inf'), 2) | st.just(','),
        'safeguard': st.sampled_from(['0.5', '1', '1.5']),
        'dirichlet': st.sampled_from(['true', 'false']),
        'threads': ints(1, 2),
        'seed': ints(0, 3),
    }
    lines = ['kind = %s' % kind,
             'subdivisions = %s' % draw(ints(1, 4) | st.lists(
                 ints(1, 4), min_size=2, max_size=3).map(' '.join))]
    if geometry is not None:
        lines.append('geometry = %s' % geometry)
    # bounded where the kind reads them: the defaults run 40 angles and 6 s
    if 'nangles' in reads:
        lines.append('nangles = %s' % draw(ints(1, 3)))
    if 'tspan' in reads:
        lines.append('tspan = %s' % draw(st.sampled_from(['0.2', '1'])))
    for key in draw(st.lists(st.sampled_from(sorted(reads & set(optional))),
                             unique=True, max_size=5)):
        lines.append('%s = %s' % (key, draw(optional[key])))
    param = draw(st.none() | st.sampled_from(_TRIM_AND_MAP_PARAMS))
    if param is not None:
        lines.append('geometry.%s = %s' % param)
    return kind, lines


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(generated_configs())
def test_generated_configs_keep_the_exit_contract(generated):
    kind, lines = generated
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, 'o')
        cfg = os.path.join(tmp, 'exp.cfg')
        with open(cfg, 'w') as f:
            f.write('\n'.join(lines + ['out = %s' % out]) + '\n')
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([kind, '--config', cfg])
        err = err.getvalue()
        assert code in (0, 2, 3), (code, lines, err)
        assert 'Traceback' not in err
        if code == 2:
            # file:line, or the key when it took its default
            assert re.search(r'exp\.cfg(:\d+| \(default \w+\)):', err), \
                (lines, err)
            assert not os.path.exists(out), (lines, err)
        if code == 3:
            assert re.search(r'numerical failure: (reference level|level \d|'
                             r'angle |pencil )', err), (lines, err)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_all_bare(tmp_path, *args):
    # a bare copy of scripts/ and src/, with no igalump on any import path
    for name in ('scripts', 'src'):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns('__pycache__'))
    env = {k: v for k, v in os.environ.items() if k != 'PYTHONPATH'}
    proc = subprocess.run(
        [sys.executable, str(tmp_path / 'scripts' / 'run_all.py')]
        + list(args), env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_run_all_bench_records_without_touching_results(tmp_path):
    bench = tmp_path / 'bench.json'
    _run_all_bare(tmp_path, '--bench', str(bench), 'bandwidth_cube')
    with open(bench) as f:
        record = json.load(f)
    assert set(record) == {'python', 'numpy', 'scipy', 'blas',
                           'blas_threads', 'src_lines', 'studies',
                           'tier1_s', 'tier1_passed', 'tier1_failed'}
    # the tier-1 run is in the copied tree, which holds no tests
    assert record['tier1_s'] > 0
    assert record['tier1_passed'] == record['tier1_failed'] == 0
    assert record['blas_threads'] >= 1
    # the line count of the copied tree's modules, as wc -l counts them
    modules = glob.glob(str(tmp_path / 'src' / 'igalump' / '*.py'))
    assert record['src_lines'] == sum(
        open(path, 'rb').read().count(b'\n') for path in modules) > 0
    study = record['studies']['bandwidth_cube']
    assert set(record['studies']) == {'bandwidth_cube'}
    assert set(study) == {'wall_s', 'wall_s_min', 'wall_s_max',
                          'peak_rss_mb', 'peak_rss_mb_min',
                          'peak_rss_mb_max', 'exit', 'n'}
    # every study runs five times; the record is the median and the range
    assert study['exit'] == 0 and study['n'] == 5
    assert 0 < study['wall_s_min'] <= study['wall_s'] <= study['wall_s_max']
    assert 0 < study['peak_rss_mb_min'] <= study['peak_rss_mb'] \
        <= study['peak_rss_mb_max']
    # the study wrote to a temporary directory, not under results/
    assert not (tmp_path / 'results').exists()
    # every module was compiled before the studies: cli only runs as the
    # -m main module, which is never cached on import
    for path in modules:
        assert os.path.exists(importlib.util.cache_from_source(path)), path


def test_run_all_runs_a_study_without_an_install(tmp_path):
    proc = _run_all_bare(tmp_path, 'bandwidth_cube')
    # wall time, the study's peak resident set and its exit code
    assert re.search(r'^  \d+\.\ds peak RSS \d+ MB exit 0$', proc.stdout,
                     re.M), proc.stdout
    name = os.path.join('results', 'bandwidth_cube', 'bandwidth.csv')
    with open(os.path.join(ROOT, name), 'rb') as f:
        assert (tmp_path / name).read_bytes() == f.read()


def test_src_validates_without_assert():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(igalump.__file__), '*.py'))):
        with open(path, encoding='utf-8') as f:
            tree = ast.parse(f.read(), path)
        found += ['%s:%d' % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_benchmark_tracer_counts_trimmed_layers(tmp_path):
    # perfbench/child.py --trace wraps the layer functions and methods by
    # name and reads counts off their arguments and results, so it breaks
    # silently when a traced name, signature or result changes; a trimmed
    # sweep and a Lanczos spectrum on a glued pair reach both lumping routes
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(igalump.__file__))
    runs = {'trimmed-sweep': 'subdivisions = 8\nnangles = 2\n',
            'spectrum': 'geometry = plate_hole_2patch\np = 2\n'
                        'subdivisions = 2\nk = 3\n'}
    for kind, body in runs.items():
        cfg = write_cfg(tmp_path, 'kind = %s\n%s' % (kind, body),
                        kind + '.cfg')
        report = tmp_path / (kind + '.json')
        proc = subprocess.run(
            [sys.executable, os.path.join(root, 'perfbench', 'child.py'),
             '--src', src, '--kind', kind, '--config', cfg,
             '--out', str(tmp_path / kind), '--seed', '0',
             '--report', str(report),
             '--trace', str(tmp_path / (kind + '.spans.json'))],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(report.read_text())['stats']
        assert stats['geometry.grid_eval']['points'] > 0, kind
        assert stats['svgplot.save']['calls'] > 0, kind
        # lump_pieces reaches the block lumps by their traced module names
        assert stats['lumping.block_lumped_family']['calls'] > 0, kind
        if kind == 'spectrum':
            assert stats['linalg.banded_cholesky']['flops_computed'] > 0
            assert stats['linalg.solve']['calls'] > 0
        else:
            # the dense solve's own Cholesky checks each trimmed pencil
            assert stats['linalg.banded_cholesky']['calls'] == 0
            assert stats['geometry.classify_elements']['cut_elements'] > 0
            assert stats['assembly.assemble_trimmed']['dofs'] > 0
