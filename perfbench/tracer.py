"""In-memory span tracer installed around igalump's public functions.

Every public function of a layer module is replaced, in every igalump
module namespace that holds it, by a wrapper that times the call. The
wrappers run inside the process that runs the study, so the program under
test is not edited. A span is (id, parent id, name, start, end, self);
self time is the span's duration minus the time of the traced calls made
inside it. Hot leaves (hundreds of thousands of calls per run) are kept as
aggregated counters only, but still count as child time of their caller.

The tracer keeps a single call stack, so it assumes the traced code runs
on one thread: every workload runs with `threads = 1`.
"""

import functools
import importlib
import time

LAYERS = ('splines', 'geometry', 'assembly', 'lumping', 'linalg',
          'spectral', 'dynamics', 'experiments', 'svgplot', 'shift_invert')

# Namespaces whose module attributes are rebound to the wrappers: every
# place an experiment runner looks a layer function up by name.
_NAMESPACES = ('igalump', 'igalump.splines', 'igalump.geometry',
               'igalump.assembly', 'igalump.lumping', 'igalump.linalg',
               'igalump.spectral', 'igalump.dynamics', 'igalump.experiments',
               'igalump.svgplot', 'igalump.cli')

# Public methods traced on their classes, under the names the metrics use.
_METHODS = (('igalump.geometry', 'Patch', 'grid_eval', 'geometry.grid_eval'),
            ('igalump.linalg', 'FactorizedOperator', 'solve', 'linalg.solve'),
            ('igalump.svgplot', 'LinePlot', 'save', 'svgplot.save'))

# Called too often to keep one span per call.
HOT = frozenset({'splines.eval_basis', 'geometry.grid_eval', 'linalg.solve',
                 'dynamics.plate_deflection',
                 'dynamics.plate_deflection_laplacian'})

# Not traced: parse_config and apply_overrides set the study up and are
# not part of run_s; the runners are traced through RUNNERS as
# experiments.runner instead of one name each. gauss_rule is a two-line
# wrapper of numpy's leggauss that the cut-element loop calls per subcell;
# its time stays in the caller's self time, so assemble_trimmed's self
# time is the whole subcell quadrature apart from basis and geometry
# evaluation.
_SKIP = frozenset({'experiments.parse_config', 'experiments.apply_overrides',
                   'assembly.gauss_rule'})


def _prod(values):
    out = 1
    for v in values:
        out *= int(v)
    return out


def _grid_points(args, kwargs, result):
    return {'points': _prod(len(p) for p in args[1])}


def _single_patch(args, kwargs, result):
    space = args[0]
    return {'elements': _prod(kv.numspans for kv in space.kvs),
            'dofs': int(result.K.shape[0])}


def _system_dofs(args, kwargs, result):
    return {'dofs': int(result.K.shape[0])}


def _cut_elements(args, kwargs, result):
    return {'cut_elements': int((result.element_class == 0).sum())}


def _dense_eig(args, kwargs, result):
    n = len(result[0])
    return {'n3_computed': n ** 3}


def _banded_cholesky(args, kwargs, result):
    bw = kwargs.get('bandwidth', args[1] if len(args) > 1 else 0)
    bw = min(int(bw), max(result.n - 1, 0))
    return {'flops_computed': result.n * bw * bw}


def _lanczos(args, kwargs, result):
    return {'n_iter': int(result.n_iter), 'n_matvec': int(result.n_matvec),
            'n_restarts': int(result.n_restarts),
            'max_residual': float(result.residuals.max())}


def _eigsh(args, kwargs, result):
    return {'n': int(args[0].shape[0])}


def _steps(args, kwargs, result):
    return {'steps': int(result.nsteps)}


# Work counts taken from the arguments or the result of a traced call.
# Counts are summed over calls, except max_* which keep the largest value.
COUNTERS = {
    'geometry.grid_eval': _grid_points,
    'assembly.assemble_single_patch': _single_patch,
    'assembly.assemble_trimmed': _system_dofs,
    'geometry.classify_elements': _cut_elements,
    'linalg.dense_generalized_eig': _dense_eig,
    'linalg.banded_cholesky': _banded_cholesky,
    'spectral.lanczos': _lanczos,
    'shift_invert.eigsh': _eigsh,
    'dynamics.central_difference': _steps,
}


class Tracer:
    """Span recorder; install() wraps igalump, stats/spans hold the result."""

    def __init__(self):
        self.spans = []     # (id, parent id, name, start, end, self_s)
        self.stats = {}     # name -> {'calls', 'total_s', 'self_s', counts}
        self._stack = []    # open calls: [child_s, span id]
        self._next_id = 1
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        """Return fn timed under name, recording a span unless it is hot."""
        stats = self.stats.setdefault(
            name, {'calls': 0, 'total_s': 0.0, 'self_s': 0.0})
        stack = self._stack
        spans = self.spans
        count = COUNTERS.get(name)
        hot = name in HOT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hot:
                frame = [0.0, 0]
            else:
                frame = [0.0, self._next_id]
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                stats['calls'] += 1
                stats['total_s'] += dur
                stats['self_s'] += own
                if not hot:
                    spans.append((frame[1], parent[1] if parent else 0, name,
                                  start - self._t0, end - self._t0, own))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    if key.startswith('max_'):
                        stats[key] = max(stats.get(key, value), value)
                    else:
                        stats[key] = stats.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions where igalump looks them up."""
        mods = [importlib.import_module(m) for m in _NAMESPACES]
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.rpartition('.')[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith('_') or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, '__module__', None) != mod.__name__):
                    continue
                name = '%s.%s' % (layer, attr)
                if name not in _SKIP and not name.startswith(
                        'experiments.run_'):
                    wrapped[id(obj)] = self.wrap(name, obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith('__'):
                    setattr(mod, attr, wrapped[id(obj)])
        for modname, cls, meth, name in _METHODS:
            klass = getattr(importlib.import_module(modname), cls)
            setattr(klass, meth, self.wrap(name, getattr(klass, meth)))
        experiments = importlib.import_module('igalump.experiments')
        for kind, fn in list(experiments.RUNNERS.items()):
            experiments.RUNNERS[kind] = self.wrap('experiments.runner', fn)
        # experiments calls scipy's shift-invert solver as spla.eigsh
        spla = experiments.spla
        spla.eigsh = self.wrap('shift_invert.eigsh', spla.eigsh)
