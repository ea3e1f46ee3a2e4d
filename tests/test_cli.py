import numpy as np
import pytest

from igalump.cli import main


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
    # horizons shorter than a single stable step
    cfg = write_cfg(tmp_path, (
        'kind = deflate-ratio\nsubdivisions = 8 4\np = 2\nranks = 4\n'
        'horizons = 1e-9\nout = %s\n' % (tmp_path / 'r')))
    assert main(['deflate-ratio', '--config', cfg]) == 3
    assert 'numerical failure' in capsys.readouterr().err


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


@pytest.mark.parametrize('kind, body, names', [
    ('trimmed-sweep', 'geometry = rotated_square\ngeometry.half_side = 0.001'
     '\nsubdivisions = 4\nnangles = 3\n',
     ('exp.cfg:2:', 'angle 0,', 'half_side 0.001', 'n_active = 0')),
    ('spectrum', 'geometry = quarter_annulus\ngeometry.rin = -1\n',
     ('exp.cfg:2:', 'geometry', 'rin=-1')),
    ('spectrum', 'geometry = quarter_annulus\ngeometry.rin = 3\n'
     'geometry.rout = 1\n', ('exp.cfg:2:', 'geometry', 'rin=3', 'rout=1')),
    ('spectrum', 'geometry = magnet\ngeometry.thickness = 0\n',
     ('exp.cfg:2:', 'geometry', 'thickness')),
    ('spectrum', 'geometry = twisted_box\ngeometry.npatches = 0\n',
     ('exp.cfg:2:', 'geometry', 'npatches')),
    ('convergence', 'dirichlet = false\n',
     ('exp.cfg:2:', 'dirichlet = false', 'Dirichlet conditions')),
    ('spectrum', 'subdivisions = 4\nk = 1000\n',
     ('config error', 'exp.cfg:3:', 'k = 1000', 'n = 36')),
])
def test_faulty_config_exits_with_located_message(tmp_path, capsys, kind,
                                                  body, names):
    cfg = write_cfg(tmp_path, 'kind = %s\n%sout = %s\n'
                    % (kind, body, tmp_path / 'o'))
    assert main([kind, '--config', cfg]) in (2, 3)
    err = capsys.readouterr().err
    assert 'Traceback' not in err
    for name in names:
        assert name in err, (name, err)
