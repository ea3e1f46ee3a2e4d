"""Output check: a study's CSVs against the reference recorded with them.

The reference CSVs under perfbench/reference/<workload>/ were written by
the same configs at the commit that added the benchmark. A fresh run
passes when it wrote the same CSV files, each with the same header and
row count, and every cell agrees under the rule for its column:

* exact: integer and label columns (rank, k, n_active, spd, N_w, N_s,
  label) must be equal.
* slack: Lanczos counts (N_i, n_matvec) depend on the start vector, so on
  the seed; they may differ from the reference by SLACK of its value.
* float: everything else (eigenvalues, errors, slopes, times, norms)
  must satisfy |x - ref| <= RTOL * |ref| + atol. The absolute floor atol
  is 0 except where a column sits near roundoff: the consistent-mass
  convergence error reaches 4e-11 and the L2 error histories start near
  1e-4, so those columns get ERROR_FLOOR. A slope fitted through a
  4e-11 error that moves by ERROR_FLOOR moves by about
  (1e-12 / 4e-11) / ln 2 = 0.04, hence SLOPE_FLOOR.
* deflate_ratio.csv: ratio must equal (N_s + N_i) / N_w of its own row,
  and lie within SLACK of the reference like N_i.

A failure names the file, line and column.
"""

import csv
import fnmatch
import os

RTOL = 1e-6
ERROR_FLOOR = 1e-12
SLOPE_FLOOR = 0.05
SLACK = 0.5

EXACT = {'rank', 'k', 'n_active', 'spd', 'N_w', 'N_s', 'label'}
SLACKED = {'N_i', 'n_matvec', 'ratio'}
# (file pattern, column) -> absolute floor; column None covers every column
FLOORS = {('convergence.csv', None): ERROR_FLOOR,
          ('slopes.csv', 'slope'): SLOPE_FLOOR,
          ('sim_*.csv', 'l2_error'): ERROR_FLOOR}


def _floor(fname, col):
    for (pattern, column), atol in FLOORS.items():
        if fnmatch.fnmatch(fname, pattern) and column in (None, col):
            return atol
    return 0.0


def _read(path):
    with open(path, newline='') as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cell(fname, col, got, ref):
    """None if the cell passes, else the reason it fails."""
    if col in EXACT:
        return None if got == ref else 'expected %s' % ref
    try:
        x, r = float(got), float(ref)
    except ValueError:
        return 'not a number (expected %s)' % ref
    if col in SLACKED:
        tol = SLACK * abs(r)
        rule = 'slack %g' % SLACK
    else:
        atol = _floor(fname, col)
        tol = RTOL * abs(r) + atol
        rule = 'rtol %g, atol %g' % (RTOL, atol)
    if abs(x - r) <= tol:
        return None
    return 'expected %s (%s)' % (ref, rule)


def _ratio_consistent(header, row):
    at = {c: i for i, c in enumerate(header)}
    n_w, n_s, n_i = (int(row[at[c]]) for c in ('N_w', 'N_s', 'N_i'))
    want = (n_s + n_i) / n_w
    got = float(row[at['ratio']])
    if abs(got - want) <= 1e-12 * abs(want):
        return None
    return 'ratio %s is not (N_s + N_i) / N_w = %.17g' % (row[at['ratio']],
                                                          want)


def compare(out_dir, ref_dir):
    """List of failure messages; empty when out_dir matches ref_dir."""
    if not os.path.isdir(ref_dir):
        return ['no reference outputs in %s' % ref_dir]
    refs = sorted(f for f in os.listdir(ref_dir) if f.endswith('.csv'))
    gots = sorted(f for f in os.listdir(out_dir) if f.endswith('.csv'))
    if refs != gots:
        return ['wrote CSV files %s, expected %s' % (gots, refs)]
    if not any(f.endswith('.svg') and os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir)):
        return ['no figure written']
    problems = []
    for fname in refs:
        header, rows = _read(os.path.join(out_dir, fname))
        rheader, rrows = _read(os.path.join(ref_dir, fname))
        if header != rheader:
            problems.append('%s: header %s, expected %s'
                            % (fname, header, rheader))
            continue
        if len(rows) != len(rrows):
            problems.append('%s: %d rows, expected %d'
                            % (fname, len(rows), len(rrows)))
            continue
        for lineno, (row, rrow) in enumerate(zip(rows, rrows), 2):
            for col, got, ref in zip(header, row, rrow):
                why = _cell(fname, col, got, ref)
                if why:
                    problems.append('%s line %d column %s: got %s, %s'
                                    % (fname, lineno, col, got, why))
            if fname == 'deflate_ratio.csv':
                why = _ratio_consistent(header, row)
                if why:
                    problems.append('%s line %d: %s' % (fname, lineno, why))
    return problems
