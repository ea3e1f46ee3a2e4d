"""Fresh study runs against the committed tables in results/.

Each config of scripts/configs/ listed below runs through the command line
into a temporary directory, and every CSV it writes is compared with the
one under results/. Integer and label columns must match exactly. Float
columns must agree within RTOL times the largest magnitude of that column
among the rows with the same label (the whole column when the file has no
label column). The plots are not compared, and the slow study
convergence_square is left out. spectrum_rotated and trimmed_sweep run the
trimmed assembly, inside and cut elements alike, end to end.
"""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from igalump.cli import main

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-9
_INT = re.compile(r'^-?[0-9]+$')

CONFIGS = ('bandwidth_cube', 'deflate_ratio_plate', 'spectrum_multipatch',
           'spectrum_plate_deflated', 'spectrum_rotated', 'spectrum_stretched',
           'simulate_plate', 'trimmed_sweep')


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return not _INT.match(text)


def _read(path):
    with open(path, newline='') as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _kind(config):
    for line in config.read_text().splitlines():
        key, _, value = line.partition('=')
        if key.strip() == 'kind':
            return value.strip()
    raise ValueError('%s declares no kind' % config)


def compare_tables(ref_path, new_path):
    """Mismatches of new_path against ref_path, as readable strings."""
    header, ref = _read(ref_path)
    new_header, new = _read(new_path)
    if new_header != header or len(new) != len(ref):
        return ['%s: header or row count differs' % new_path.name]
    labels = ([row[header.index('label')] for row in ref]
              if 'label' in header else [''] * len(ref))
    bad = []
    for c, name in enumerate(header):
        column = [row[c] for row in ref]
        if not any(_is_float(v) for v in column):
            bad += ['%s:%d: %s %s != %s' % (new_path.name, r + 2, name,
                                            new[r][c], v)
                    for r, v in enumerate(column) if new[r][c] != v]
            continue
        want = np.array(column, dtype=float)
        got = np.array([row[c] for row in new], dtype=float)
        for label in set(labels):
            rows = [r for r, lb in enumerate(labels) if lb == label]
            tol = RTOL * np.max(np.abs(want[rows]))
            bad += ['%s:%d: %s %r vs %r' % (new_path.name, r + 2, name,
                                            got[r], want[r])
                    for r in rows if not abs(got[r] - want[r]) <= tol]
    return bad


@pytest.mark.parametrize('name', CONFIGS)
def test_fresh_run_matches_results(name, tmp_path, capsys):
    config = ROOT / 'scripts' / 'configs' / ('%s.cfg' % name)
    assert main([_kind(config), '--config', str(config),
                 '--out', str(tmp_path)]) == 0
    capsys.readouterr()
    refs = sorted((ROOT / 'results' / name).glob('*.csv'))
    assert refs
    assert sorted(p.name for p in tmp_path.glob('*.csv')) == \
        [p.name for p in refs]
    bad = []
    for ref in refs:
        bad += compare_tables(ref, tmp_path / ref.name)
    assert not bad, '\n'.join(bad[:20])


def test_comparison_flags_drift_beyond_tolerance(tmp_path):
    ref = tmp_path / 'ref.csv'
    ref.write_text('k,lambda,label\n1,2.0,M\n2,4.0,M\n1,100.0,P1\n')
    near = tmp_path / 'near.csv'
    near.write_text('k,lambda,label\n1,2.000000000001,M\n2,4.0,M\n'
                    '1,100.0,P1\n')
    assert compare_tables(ref, near) == []
    for body in ('1,2.0001,M\n2,4.0,M\n1,100.0,P1\n',
                 '1,2.0,M\n3,4.0,M\n1,100.0,P1\n',
                 '1,2.0,M\n2,4.0,P1\n1,100.0,P1\n'):
        drift = tmp_path / 'drift.csv'
        drift.write_text('k,lambda,label\n' + body)
        assert len(compare_tables(ref, drift)) == 1, body
