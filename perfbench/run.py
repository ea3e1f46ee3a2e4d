#!/usr/bin/env python3
"""Study benchmark for igalump: four study configs through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads/ or `all`. Each study
run is a fresh process that runs `igalump <kind>` on the workload's
config (perfbench/child.py), with BLAS pinned to BLAS_THREADS threads and
--seed passed through to the program. Runs repeat until S seconds have
passed; every run's CSVs are checked against perfbench/reference/.

--trace 0 reports the end-to-end metrics: run_s (median study run time,
parsed config to last output written, in reference seconds: wall time
rescaled by the machine speed measured during the run, see child.py),
setup_s (median time of interpreter start + import igalump + config
parse, over SETUP_PROBES extra probes and every study, in reference
seconds by the speed measured right after the parse), peak_rss_mb
(median peak RSS of the study process). The failure rate is
failed/attempted in the result line.

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (perfbench/tracer.py), the tracing overhead as
traced minus untraced run_s, and wall_s, the untraced runs' median raw
wall time, to check reference seconds against.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. Details of every run, the environment and the spans of the last
traced run go to .perfbench_out/<workload>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT = ROOT / '.perfbench_out'
WORKLOADS = HERE / 'workloads'
REFERENCE = HERE / 'reference'

BLAS_THREADS = 1
SETUP_PROBES = 3
DEADLINE_S = 170.0   # the whole invocation must end within 180 s

# per-name trace statistics reported under <name>.<stat>
TRACED = (
    ('splines.eval_basis', ('calls', 'self_s')),
    ('geometry.grid_eval', ('calls', 'points', 'self_s')),
    ('dynamics.l2_error', ('calls', 'self_s')),
    ('assembly.assemble_single_patch', ('calls', 'self_s', 'elements',
                                        'dofs')),
    ('shift_invert.eigsh', ('calls', 'self_s', 'n')),
    ('linalg.dense_generalized_eig', ('calls', 'self_s', 'n3_computed')),
    ('assembly.assemble_trimmed', ('calls', 'self_s', 'dofs')),
    ('geometry.classify_elements', ('calls', 'self_s', 'cut_elements')),
    ('spectral.lanczos', ('calls', 'self_s', 'n_iter', 'n_matvec',
                          'n_restarts', 'max_residual')),
    ('linalg.solve', ('calls', 'self_s')),
    ('dynamics.central_difference', ('calls', 'self_s', 'steps')),
    ('linalg.banded_cholesky', ('calls', 'self_s', 'flops_computed')),
    ('assembly.load_vector', ('calls', 'self_s')),
    ('lumping.lump_rowsum', ('calls', 'self_s')),
    ('lumping.block_lumped_family', ('calls', 'self_s')),
    ('lumping.hierarchical_lump', ('calls', 'self_s')),
    ('lumping.pad_lump_trim', ('calls', 'self_s')),
    ('assembly.jacobi_rescale', ('self_s',)),
    ('experiments.runner', ('self_s',)),
    ('svgplot.save', ('self_s',)),
)
STAT_UNITS = {'self_s': 's', 'max_residual': '1', 'flops_computed': 'flop'}


def per_layer_units():
    """Every --trace 1 metric name with its unit, in report order."""
    units = {}
    for name, stats in TRACED:
        for stat in stats:
            units['%s.%s' % (name, stat)] = STAT_UNITS.get(stat, 'count')
    units.update({'output.bytes': 'B', 'wall_s': 's', 'trace.run_s': 's',
                  'trace.overhead_s': 's', 'trace.accounted_share': '1'})
    return units


def kind_of(cfg):
    for line in cfg.read_text().splitlines():
        key, _, val = line.partition('=')
        if key.strip() == 'kind':
            return val.strip()
    raise SystemExit('no kind in %s' % cfg)


def git_commit():
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / '.git' / 'HEAD'
    try:
        ref = head.read_text().strip()
        if ref.startswith('ref: '):
            return (ROOT / '.git' / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def child_env():
    env = dict(os.environ)
    for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS',
                'BLIS_NUM_THREADS'):
        env[var] = str(BLAS_THREADS)
    env['PYTHONHASHSEED'] = '0'
    return env


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def launch(workload, seed, deadline, setup_only=False, traced=False):
    """One child process; a dict with its timings, report and problems."""
    cfg = WORKLOADS / ('%s.cfg' % workload)
    base = OUT / workload
    out = base / 'study'
    report = base / 'report.json'
    shutil.rmtree(out, ignore_errors=True)
    if report.exists():
        report.unlink()
    cmd = [sys.executable, str(HERE / 'child.py'), '--src', str(SRC),
           '--kind', kind_of(cfg), '--config', str(cfg), '--out', str(out),
           '--seed', str(seed), '--report', str(report)]
    if setup_only:
        cmd.append('--setup-only')
    if traced:
        cmd += ['--trace', str(base / 'spans.json')]
    t0 = time.monotonic()
    res = {'traced': traced, 'problems': []}
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        res['process_s'] = time.monotonic() - t0
        res['problems'].append('timed out after %.1f s' % res['process_s'])
        return res
    res['process_s'] = time.monotonic() - t0
    if proc.returncode != 0 or not report.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ['no message']
        res['problems'].append('exit %d: %s' % (proc.returncode, tail[0]))
        return res
    rep = json.loads(report.read_text())
    res['report'] = rep
    res['setup_wall_s'] = rep['parsed'] - t0
    res['setup_s'] = res['setup_wall_s'] * rep['setup_scale']
    if setup_only:
        return res
    res['wall_s'] = rep['wall_s']
    res['run_s'] = rep['run_s']
    res['kernel_medians_s'] = rep['kernel_medians_s']
    res['peak_rss_mb'] = rep['peak_rss_mb']
    res['output_bytes'] = sum(f.stat().st_size for f in out.iterdir())
    res['problems'] = check.compare(str(out), str(REFERENCE / workload))
    return res


def repeat(workload, seed, seconds, deadline, trace):
    """Study runs until `seconds` have passed (at least one of each kind)."""
    runs = []
    t0 = time.monotonic()
    while True:
        plain = [r for r in runs if not r['traced']]
        traced = [r for r in runs if r['traced']]
        done = plain and (traced or not trace)
        now = time.monotonic()
        if done and now - t0 >= seconds:
            break
        last = runs[-1]['process_s'] if runs else 0.0
        if runs and now + last > deadline:
            break
        runs.append(launch(workload, seed, deadline,
                           traced=trace and len(plain) > len(traced)))
    return runs


def per_layer(traced, plain):
    """Median over traced runs of every per-layer metric.

    A name that never runs on the workload reports 0 calls and 0 s.
    """
    units = per_layer_units()
    rows = []
    for r in traced:
        rep = r['report']
        stats = rep['stats']
        m = {}
        for name, keys in TRACED:
            st = stats.get(name, {})
            for key in keys:
                m['%s.%s' % (name, key)] = st.get(key, 0)
        m['output.bytes'] = r['output_bytes']
        m['trace.run_s'] = r['wall_s']
        m['trace.accounted_share'] = sum(
            st['self_s'] for st in stats.values()) / r['wall_s']
        rows.append(m)
    whole = {
        # in reference seconds, which the machine's speed drift does not move
        'trace.overhead_s': median([r['run_s'] for r in traced])
        - median([r['run_s'] for r in plain]),
        'wall_s': median([r['wall_s'] for r in plain]),
    }
    out = {}
    for name, unit in units.items():
        value = whole[name] if name in whole else median(
            [m[name] for m in rows])
        out[name] = {'value': value, 'unit': unit}
    return out


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; (result line dict, record dict)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    probes = [] if trace else [
        launch(workload, seed, deadline, setup_only=True)
        for _ in range(SETUP_PROBES)]
    runs = repeat(workload, seed, seconds, deadline, trace)
    failed = [r for r in runs if r['problems']]
    ok = [r for r in runs if not r['problems']]
    timed = ok or [r for r in runs if 'run_s' in r]
    if trace:
        traced = [r for r in timed if r['traced']]
        plain = [r for r in timed if not r['traced']]
        # without a finished traced and untraced run the result is not
        # correct anyway, and every value reads 0
        metrics = per_layer(traced, plain) if traced and plain else {
            name: {'value': 0.0, 'unit': unit}
            for name, unit in per_layer_units().items()}
    else:
        run_s = [r['run_s'] for r in timed] or [r['process_s']
                                                for r in runs]
        setup = [r['setup_s'] for r in probes + runs if 'setup_s' in r]
        rss = [r['peak_rss_mb'] for r in timed]
        metrics = {
            'run_s': {'value': median(run_s), 'unit': 's'},
            'setup_s': {'value': median(setup), 'unit': 's'},
            'peak_rss_mb': {'value': median(rss), 'unit': 'MB'},
        }
    result = {'correct': not failed, 'attempted': len(runs),
              'failed': len(failed), 'metrics': metrics}
    first = next((r['report'] for r in runs + probes if 'report' in r), {})
    record = {
        'workload': workload, 'seed': seed, 'seconds': seconds,
        'trace': trace, 'commit': git_commit(), 'nproc': len(
            os.sched_getaffinity(0)),
        'blas_threads': BLAS_THREADS,
        'python': first.get('python'), 'numpy': first.get('numpy'),
        'scipy': first.get('scipy'), 'blas': first.get('blas'),
        'config': first.get('config'),
        'elapsed_s': time.monotonic() - start,
        'runs': [{k: v for k, v in r.items() if k != 'report'}
                 for r in runs],
        'setup_probes': [{k: v for k, v in r.items() if k != 'report'}
                         for r in probes],
        'result': result,
    }
    (OUT / workload / ('record_trace%d.json' % trace)).write_text(
        json.dumps(record, indent=1))
    return result, record


def summary(workload, result, record):
    """Human-readable lines for one workload."""
    runs = [r for r in record['runs'] if 'run_s' in r]
    lines = ['%s: seed %d, %d runs, %d failed (fail_rate %.3g), '
             'blas_threads %d, nproc %d'
             % (workload, record['seed'], result['attempted'],
                result['failed'], result['failed'] / result['attempted'],
                record['blas_threads'], record['nproc'])]
    setups = record['setup_probes'] + record['runs']
    rows = [('run_s', [r['run_s'] for r in runs if not r['traced']]),
            ('  wall', [r['wall_s'] for r in runs if not r['traced']]),
            ('traced run_s', [r['run_s'] for r in runs if r['traced']]),
            ('  wall', [r['wall_s'] for r in runs if r['traced']])]
    if not record['trace']:
        rows.append(('setup_s', [r['setup_s'] for r in setups
                                 if 'setup_s' in r]))
        rows.append(('  wall', [r['setup_wall_s'] for r in setups
                                if 'setup_wall_s' in r]))
    for tag, xs in rows:
        if xs:
            q1, q3 = quartiles(xs)
            lines.append('  %-13s median %.4g s  q1 %.4g  q3 %.4g  n=%d'
                         % (tag, median(xs), q1, q3, len(xs)))
    if not record['trace']:
        lines.append('  %-13s median %.4g MB  n=%d'
                     % ('peak_rss_mb', result['metrics']['peak_rss_mb']
                        ['value'], len(runs)))
    if record['trace']:
        m = result['metrics']
        total = m['trace.run_s']['value'] or 1.0
        shares = sorted(((v['value'], k) for k, v in m.items()
                         if k.endswith('.self_s')), reverse=True)
        lines.append('  traced self time, share of traced wall %.4g s '
                     '(overhead %.3g s, accounted %.3f):'
                     % (total, m['trace.overhead_s']['value'],
                        m['trace.accounted_share']['value']))
        for value, name in shares[:8]:
            lines.append('    %-40s %8.4f s  %5.1f%%'
                         % (name, value, 100.0 * value / total))
    for r in record['runs']:
        for p in r['problems'][:5]:
            lines.append('  FAILED %s: %s' % (workload, p))
    return lines


def main():
    names = sorted(p.stem for p in WORKLOADS.glob('*.cfg'))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True, choices=names + ['all'])
    ap.add_argument('--seed', type=int, default=0)
    ap.add_argument('--seconds', type=float, default=20.0)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error('--seed must be nonnegative')
    if not (SRC / 'igalump' / 'cli.py').is_file():
        print('no igalump sources under %s' % SRC, file=sys.stderr)
        return 2
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        print('BLAS_THREADS exceeds the usable cores', file=sys.stderr)
        return 2

    todo = names if args.workload == 'all' else [args.workload]
    results = {}
    for name in todo:
        result, record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        for line in summary(name, result, record):
            print(line, flush=True)
        results[name] = result
    print(json.dumps(results[todo[0]] if len(todo) == 1 else results))
    return 0


if __name__ == '__main__':
    sys.exit(main())
