#!/usr/bin/env python3
"""Run every study config in scripts/configs through the command line.

Each study runs as `python -m igalump.cli` on the package in src/ next to
this script, with no install needed, or on the src tree that --src names.
Each config sets its own out directory under results/ relative to the
repository root, which is where the subprocesses run. Pass config names
(without .cfg) to run a subset; -n lists what would run. After each study
it prints the wall time, the peak resident set of the study process (from
os.wait4, in MB of 2^20 bytes) and the exit code. A config that does not
parse exits 2 with its config error.

--bench FILE first compiles the igalump modules of the source tree that
runs to bytecode (compileall), once, so that no study process compiles
them and each peak_rss_mb measures the program rather than the compiler.
It sends each study's output to a temporary directory instead, so
results/ is left as it is, and writes FILE as JSON: per study its
wall_s, peak_rss_mb and exit, plus the Python, numpy and scipy versions,
the BLAS library, the BLAS thread count (OPENBLAS_NUM_THREADS, or the
usable cores when it is unset) and src_lines, the total line count of the
igalump/*.py modules of the source tree that ran. It runs the studies
round-robin _REPEAT (5) times: wall_s and peak_rss_mb are the medians of
the n runs, beside wall_s_min, wall_s_max, peak_rss_mb_min and
peak_rss_mb_max, since one run per study cannot tell a change from the
host's run-to-run spread. After the studies it runs
the tier-1 command once in the tree that holds that src (its parent
directory), `PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors`, and records its wall time tier1_s and
the counts tier1_passed and tier1_failed (failures plus errors) from
pytest's summary line. To time an old commit, export its tree
(`git archive <commit> | tar -x -C DIR`) and pass its src:

    OPENBLAS_NUM_THREADS=1 python3 scripts/run_all.py --bench BENCH_<n>.json \
        --src DIR/src
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / 'scripts' / 'configs'
SRC = str(ROOT / 'src')
_REPEAT = 5     # runs per study under --bench, recorded as median and range


def _platform():
    import numpy
    import scipy
    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']
    threads = os.environ.get('OPENBLAS_NUM_THREADS')
    return {'python': platform.python_version(),
            'numpy': numpy.__version__, 'scipy': scipy.__version__,
            'blas': '%s %s' % (blas.get('name'), blas.get('version')),
            'blas_threads': (int(threads) if threads
                             else len(os.sched_getaffinity(0)))}


def _src_lines(src):
    """Total line count of src/igalump/*.py, as `wc -l` counts it."""
    return sum(path.read_bytes().count(b'\n')
               for path in Path(src, 'igalump').glob('*.py'))


def _summary(runs):
    """A study's record from its (wall, rss, exit) runs: the medians, the
    extremes and the count, and the exit code of the last run."""
    walls, rsss, exits = zip(*runs)
    record = {'exit': exits[-1], 'n': len(runs)}
    for key, values, digits in (('wall_s', walls, 3),
                                ('peak_rss_mb', rsss, 1)):
        for suffix, stat in (('', statistics.median), ('_min', min),
                             ('_max', max)):
            record[key + suffix] = round(stat(values), digits)
    return record


def _tier1(src, env):
    """Run the tier-1 suite in the tree of src; its wall time and counts."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, '-m', 'pytest', '-q',
         '--continue-on-collection-errors'],
        cwd=os.path.dirname(src), env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or [''])[-1]
    counts = {word: int(n) for n, word in
              re.findall(r'(\d+) (passed|failed|error)', summary)}
    passed = counts.get('passed', 0)
    failed = counts.get('failed', 0) + counts.get('error', 0)
    print('tier-1: %d passed, %d failed in %.1fs' % (passed, failed, wall),
          flush=True)
    return {'tier1_s': round(wall, 3), 'tier1_passed': passed,
            'tier1_failed': failed}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('names', nargs='*', help='config names, default all')
    ap.add_argument('-n', '--dry-run', action='store_true',
                    help='print the commands without running')
    ap.add_argument('--seed', type=int, default=None,
                    help='override the seed of every run')
    ap.add_argument('--bench', metavar='FILE',
                    help='write timings (medians of %d runs) to FILE, '
                    'outputs to a temp dir' % _REPEAT)
    ap.add_argument('--src', default=SRC, metavar='DIR',
                    help='the igalump source tree to run (default: %s)'
                    % os.path.relpath(SRC, ROOT))
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, 'igalump')):
        sys.exit('no igalump package in %s' % src)
    sys.path.insert(0, src)
    from igalump.experiments import ConfigError, parse_config

    cfgs = sorted(CONFIGS.glob('*.cfg'))
    if args.names:
        wanted = set(args.names)
        cfgs = [c for c in cfgs if c.stem in wanted]
        missing = wanted - {c.stem for c in cfgs}
        if missing:
            sys.exit('unknown config(s): %s' % ', '.join(sorted(missing)))

    inherited = os.environ.get('PYTHONPATH')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([inherited] if inherited else [])))
    if args.bench and not args.dry_run:
        compileall.compile_dir(os.path.join(src, 'igalump'), quiet=1)
    cmds = {}
    for cfg in cfgs:
        try:
            kind = parse_config(str(cfg)).kind
        except ConfigError as exc:
            print('config error: %s' % exc, file=sys.stderr)
            sys.exit(2)
        cmds[cfg.stem] = [sys.executable, '-m', 'igalump.cli', kind,
                          '--config', str(cfg.relative_to(ROOT))]
        if args.seed is not None:
            cmds[cfg.stem] += ['--seed', str(args.seed)]
    runs = {name: [] for name in cmds}
    rc = 0
    with (tempfile.TemporaryDirectory(prefix='igalump-bench-')
          if args.bench else contextlib.nullcontext()) as tmp:
        for name in [name for _ in range(_REPEAT if args.bench else 1)
                     for name in cmds]:
            cmd = cmds[name]
            if tmp is not None:
                cmd = cmd + ['--out', os.path.join(tmp, name)]
            print('+', ' '.join(cmd), flush=True)
            if args.dry_run:
                continue
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
            rss = usage.ru_maxrss / 1024    # ru_maxrss is in KiB on Linux
            runs[name].append((wall, rss, rc))
            print('  %.1fs peak RSS %.0f MB exit %d' % (wall, rss, rc),
                  flush=True)
            if rc != 0:
                break
    if args.bench and not args.dry_run:
        studies = {name: _summary(got) for name, got in runs.items() if got}
        record = dict(_platform(), src_lines=_src_lines(src),
                      studies=studies, **_tier1(src, env))
        with open(args.bench, 'w') as f:
            json.dump(record, f, indent=1)
            f.write('\n')
    if rc != 0:
        sys.exit(rc)


if __name__ == '__main__':
    main()
