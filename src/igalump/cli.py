"""Command line driver: one subcommand per experiment kind.

Exit codes: 0 on success, 2 when the config, the command line or the output
directory is bad, 3 when the numerics fail (non-convergence, loss of
definiteness, blow-up) or an array does not fit in memory.
"""

import argparse
import sys

from scipy.sparse.linalg import ArpackError

from .experiments import RUNNERS, ConfigError, apply_overrides, parse_config

_BRIEF = {
    'spectrum': 'generalized eigenvalue curves per mass pencil',
    'convergence': 'smallest-frequency error under refinement',
    'simulate': 'manufactured plate runs per mass treatment',
    'deflate-ratio': 'deflation cost break-even over the time horizon',
    'trimmed-sweep': 'lambda_max over trim rotation angles',
    'bandwidth-report': 'predicted vs measured lumped bandwidths',
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog='igalump',
        description='mass lumping and outlier deflation experiments')
    sub = parser.add_subparsers(dest='command', required=True,
                                metavar='command')
    for name in RUNNERS:
        sp = sub.add_parser(name, help=_BRIEF[name])
        sp.add_argument('--config', required=True, metavar='PATH',
                        help='experiment description file')
        sp.add_argument('--out', metavar='DIR',
                        help='override the output directory')
        sp.add_argument('--seed', type=int, metavar='N',
                        help='override the RNG seed')
        sp.add_argument('--threads', type=int, metavar='N',
                        help='worker threads for sweep points')
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError('%s declares kind %r but %r was invoked'
                              % (args.config, cfg.kind, args.command))
        cfg = apply_overrides(cfg, out=args.out, seed=args.seed,
                              threads=args.threads)
        written = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print('config error: %s' % exc, file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, ArpackError) as exc:
        print('numerical failure: %s' % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print('numerical failure: out of memory: %s' % exc, file=sys.stderr)
        return 3
    for path in written:
        print('wrote %s' % path)
    return 0


if __name__ == '__main__':
    sys.exit(main())
