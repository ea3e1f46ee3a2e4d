#!/usr/bin/env python3
"""Run every study config in scripts/configs through the command line.

Each study runs as `python -m igalump.cli` on the package in src/ next to
this script, with no install needed. Each config sets its own out
directory under results/ relative to the repository root, which is where
the subprocesses run. Pass config names (without .cfg) to run a subset;
-n lists what would run. After each study it prints the wall time, the
peak resident set of the study process (from os.wait4, in MB of 2^20
bytes) and the exit code. A config that does not parse exits 2 with its
config error.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / 'scripts' / 'configs'
SRC = str(ROOT / 'src')


def main():
    sys.path.insert(0, SRC)
    from igalump.experiments import ConfigError, parse_config

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('names', nargs='*', help='config names, default all')
    ap.add_argument('-n', '--dry-run', action='store_true',
                    help='print the commands without running')
    ap.add_argument('--seed', type=int, default=None,
                    help='override the seed of every run')
    args = ap.parse_args()

    cfgs = sorted(CONFIGS.glob('*.cfg'))
    if args.names:
        wanted = set(args.names)
        cfgs = [c for c in cfgs if c.stem in wanted]
        missing = wanted - {c.stem for c in cfgs}
        if missing:
            sys.exit('unknown config(s): %s' % ', '.join(sorted(missing)))

    inherited = os.environ.get('PYTHONPATH')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([inherited] if inherited else [])))
    for cfg in cfgs:
        try:
            kind = parse_config(str(cfg)).kind
        except ConfigError as exc:
            print('config error: %s' % exc, file=sys.stderr)
            sys.exit(2)
        cmd = [sys.executable, '-m', 'igalump.cli', kind, '--config',
               str(cfg.relative_to(ROOT))]
        if args.seed is not None:
            cmd += ['--seed', str(args.seed)]
        print('+', ' '.join(cmd), flush=True)
        if args.dry_run:
            continue
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        print('  %.1fs peak RSS %.0f MB exit %d'
              % (time.perf_counter() - t0, usage.ru_maxrss / 1024, rc),
              flush=True)
        if rc != 0:
            sys.exit(rc)


if __name__ == '__main__':
    main()
