"""One study run, in its own process, through the igalump command line.

Imports igalump from the checkout's src/, runs `igalump <kind> --config
... --out ... --seed ...` through igalump.cli.main, and writes a JSON
report: exit code, the CLOCK_MONOTONIC instant the config was parsed (the
parent turns it into setup time) and the machine's speed just then, the
run's wall time from the parsed config to the last output written, the
same time in reference seconds (see SpeedSampler), peak resident memory,
versions and the resolved config. With --trace the layer functions are wrapped first and the report
carries per-name statistics; the spans go to a separate file.

Started by perfbench/run.py, one process per study run.
"""

import argparse
import array
import itertools
import dataclasses
import json
import os
import resource
import signal
import statistics
import sys
import time

# A fixed kernel of small numpy calls, the kind of work that dominates the
# studies, timed on the study's own thread every CAL_INTERVAL_S.
CAL_DOTS = 150
CAL_INTERVAL_S = 0.025
# Untimed dots before the timed pass. The first dot after a stretch of the
# study's own work costs about 25 warm dots, because it runs on the caches
# and branch predictors the study left behind; the next ones do not. The
# timed pass therefore measures the machine, not the study's memory use.
CAL_WARMUP_DOTS = 20
# Kernel time that defines a reference second: the warm kernel's median
# time inside the studies on the machine the benchmark was written on,
# while its vCPU ran at its usual speed, so reference seconds are close to
# wall seconds there.
CAL_REF_S = 160e-6
# A stretch between samples this long was one native call: the handler
# only runs between bytecodes.
LONG_STRETCH_S = 4 * CAL_INTERVAL_S
# A tick that ran this late landed in a native call at least this long,
# such as an operation on deflate_plate's 5,049 x 120 Lanczos basis; the
# stretch it ends is taken to be such native work.
LATE_S = 3e-4
# A second kernel, timed in the same handler, for native work (eigsh's
# factorization, dense eigensolves, operations on large arrays): 48x48
# dot products, which spend their time inside BLAS rather than in numpy's
# call overhead. When the vCPU speeds up, native code speeds up less than
# the small kernel, so scaling refine_square's eigensolves by the small
# kernel overstated its run_s by up to 25% whenever the machine ran fast.
NATIVE_DOTS = 3
# Its timed pass's usual time, measured alongside CAL_REF_S.
NATIVE_REF_S = 23e-6
# Room for every sample of a run that the 170 s deadline in run.py allows.
MAX_SAMPLES = 8192


class SpeedSampler:
    """Machine speed measured during a run, to rescale its wall time.

    The vCPU a study runs on changes speed by up to 2x over seconds, as
    other guests load the host. A SIGALRM handler times CAL_DOTS 6x6 dot
    products every CAL_INTERVAL_S, after CAL_WARMUP_DOTS untimed ones,
    between the study's own bytecodes (a long native call delays the next
    sample until it returns). Each stretch of wall time between samples,
    handler time excluded, is scaled by CAL_REF_S over the timed kernel
    time of the sample that ends it.

    A stretch of native work, longer than LONG_STRETCH_S or ended by a
    tick that ran more than LATE_S late, is scaled by NATIVE_REF_S over
    the run's median time of the native kernel instead. The median is
    used because one sample taken at the end of a long stretch says
    little about seconds of speed.

    The handler makes no malloc call: the dots write into a fixed output
    array and the samples into a preallocated array. Where blocks
    the handler asked malloc for landed in the study's heap depended on
    when the samples fell, and moved refine_square's peak RSS by 15 MB.
    """

    def __init__(self, np):
        self._a = np.ones((6, 6))
        self._c = np.empty((6, 6))
        self._b = np.ones((48, 48))
        self._e = np.empty((48, 48))
        self._dot = np.dot
        # handler start, handler end, kernel and native kernel seconds and
        # lateness of each sample; an end of 0 marks a slot not taken
        self._buf = array.array('d', bytes(5 * 8 * MAX_SAMPLES))
        # one C call, so a handler that runs between two of _record's
        # bytecodes takes the next slot instead of the same one
        self._slots = itertools.count()
        self._busy = False
        self.kernel()   # BLAS sets up its buffers before the first sample

    @property
    def samples(self):
        b = self._buf
        return [tuple(b[j:j + 5]) for j in range(0, len(b), 5) if b[j + 1]]

    def kernel(self):
        a, c, dot = self._a, self._c, self._dot
        start = time.monotonic()
        for _ in range(CAL_WARMUP_DOTS):
            dot(a, a, out=c)
        t0 = time.monotonic()
        for _ in range(CAL_DOTS):
            dot(a, a, out=c)
        t1 = time.monotonic()
        b, e = self._b, self._e
        for _ in range(NATIVE_DOTS):
            dot(b, b, out=e)
        t2 = time.monotonic()
        for _ in range(NATIVE_DOTS):
            dot(b, b, out=e)
        end = time.monotonic()
        return start, end, t1 - t0, end - t2

    def _record(self, late):
        start, end, spent, native = self.kernel()
        j = 5 * next(self._slots)
        if j < len(self._buf):
            b = self._buf
            b[j], b[j + 1], b[j + 2], b[j + 3], b[j + 4] = (
                start, end, spent, native, late)

    def _tick(self, signum, frame):
        # time since the timer fired, modulo the interval
        late = CAL_INTERVAL_S - signal.getitimer(signal.ITIMER_REAL)[0]
        if not self._busy:   # a tick that lands inside another is dropped
            self._busy = True
            self._record(late)
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def sample(self):
        """Take one sample now, outside the timer."""
        self._record(0.0)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # a tick already pending must not run inside the last sample
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def kernel_medians(self, since=0.0):
        """Median seconds of the small and of the native kernel."""
        samples = [s for s in self.samples if s[0] >= since]
        return (statistics.median(s[2] for s in samples),
                statistics.median(s[3] for s in samples))

    def reference_seconds(self, start):
        """Reference seconds from start to the final sample."""
        native = NATIVE_REF_S / self.kernel_medians(start)[1]
        total, prev = 0.0, start
        for t0, end, spent, _native, late in self.samples:
            if t0 < start:   # a set-up sample
                continue
            wall = t0 - prev
            total += wall * (native if wall > LONG_STRETCH_S or late > LATE_S
                             else CAL_REF_S / spent)
            prev = end
        return total


def _blas_info(np):
    try:
        cfg = np.show_config(mode='dicts')
        blas = cfg['Build Dependencies']['blas']
        return '%s %s' % (blas.get('name'), blas.get('version'))
    except (KeyError, TypeError, ValueError):
        return 'unknown'


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('--src', required=True)
    ap.add_argument('--kind', required=True)
    ap.add_argument('--config', required=True)
    ap.add_argument('--out', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--report', required=True)
    ap.add_argument('--setup-only', action='store_true')
    ap.add_argument('--trace', metavar='SPANS_JSON')
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    # set-up is rescaled by the speed measured while the rest imports
    sampler = SpeedSampler(np)
    sampler.start()
    import scipy
    import igalump
    import igalump.cli as cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(igalump.__file__).startswith(src + os.sep):
        sys.exit('igalump imported from %s, not from %s'
                 % (igalump.__file__, src))

    marks = {}
    apply_overrides = cli.apply_overrides

    def parsed(cfg, **kw):
        cfg = apply_overrides(cfg, **kw)
        marks['parsed'] = time.monotonic()
        marks['config'] = cfg
        sampler.sample()
        marks['setup_kernel_s'] = sampler.kernel_medians()[0]
        marks['start'] = time.monotonic()
        return cfg

    cli.apply_overrides = parsed
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    argv = [args.kind, '--config', args.config, '--out', args.out,
            '--seed', str(args.seed)]
    run = {}
    if args.setup_only:
        cli.apply_overrides(cli.parse_config(args.config), out=args.out,
                            seed=args.seed)
        sampler.stop()
        rc = 0
    else:
        rc = cli.main(argv)
        end = time.monotonic()
        sampler.stop()
        if 'start' in marks:
            run = {'wall_s': end - marks['start'],
                   'run_s': sampler.reference_seconds(marks['start'])}

    cfg = marks.get('config')
    report = {
        'rc': rc,
        'parsed': marks.get('parsed'),
        'setup_scale': CAL_REF_S / marks['setup_kernel_s']
        if 'setup_kernel_s' in marks else None,
        'wall_s': run.get('wall_s'),
        'run_s': run.get('run_s'),
        'speed_samples': len(sampler.samples),
        'kernel_medians_s': sampler.kernel_medians(marks['start'])
        if run else None,
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        'python': sys.version.split()[0],
        'numpy': np.__version__,
        'scipy': scipy.__version__,
        'blas': _blas_info(np),
        'config': None if cfg is None else {
            k: v for k, v in dataclasses.asdict(cfg).items()
            if k not in ('source', 'lines')},
    }
    if tracer is not None:
        report['stats'] = tracer.stats
        with open(args.trace, 'w') as fh:
            json.dump({'fields': ['id', 'parent', 'name', 'start_s', 'end_s',
                                  'self_s'],
                       'spans': tracer.spans,
                       'counters': tracer.stats},
                      fh)
    with open(args.report, 'w') as fh:
        json.dump(report, fh)
    return rc


if __name__ == '__main__':
    sys.exit(main())
