"""Experiment drivers behind the command line.

Each run_* function takes a validated ExperimentConfig, composes the
assembly / lumping / eigenvalue machinery, and writes CSV tables plus SVG
figures into the configured output directory. Every figure has its raw
data in a CSV next to it, and reruns with the same config and seed write
byte-identical files.
"""

import contextlib
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (assemble_multipatch, assemble_single_patch,
                       assemble_trimmed, jacobi_rescale)
from .dynamics import (central_difference, l2_error, l2_norm,
                       manufactured_wave_problem, step_count)
from .geometry import (MultipatchTopology, catalog, outer_faces,
                       rotated_square_region)
from .linalg import (DENSE_CAP, _dense_eigenvalues, _mass_factor,
                     dense_generalized_eig)
from .lumping import _as_csr, lump_pieces, lump_rowsum
from .spectral import critical_timestep, deflate, lanczos
from .splines import SplineSpace, make_open_uniform
from .svgplot import LinePlot

_PENCIL_RE = re.compile(r'^(M|rowsum|P[1-9][0-9]*|H[1-9][0-9]*)$')


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


def _key(default=MISSING, by_kind=None, reads=None, fault=None):
    """A config key: its default, by_kind's defaults for some kinds, the
    kinds that read it (every kind if None) and fault(v, kind), which says
    what is wrong with a value v and is falsy for a good one."""
    return field(default=default, metadata={
        'by_kind': by_kind or {}, 'reads': reads,
        'fault': fault or (lambda v, kind: None)})


def _below(lo, msg):
    return lambda v, kind: v is not None and v < lo and msg


def _pencil_fault(labels, kind):
    bad = [label for label in labels if not _PENCIL_RE.match(label)]
    if not labels:
        return 'select at least one pencil'
    if bad:
        return 'bad pencil label %r (use M, rowsum, P<i> or H<k>)' % bad[0]
    if len(set(labels)) != len(labels):
        return 'each pencil label may appear once'
    if kind == 'deflate-ratio' and len(labels) != 1:
        return ('deflate-ratio reads one pencil, got pencils = %s'
                % ' '.join(labels))


@dataclass
class ExperimentConfig:
    """One experiment. Each field but geometry_params (the geometry.* keys),
    source and lines is a config key, declared in the order _validate checks
    them; a key annotated tuple[t, ...] takes a list of t."""
    kind: str = _key()
    geometry: str = _key('unit_square', {
        'simulate': 'plate_hole', 'deflate-ratio': 'plate_hole',
        'trimmed-sweep': 'rotated_square', 'bandwidth-report': 'unit_cube'})
    geometry_params: dict = field(default_factory=dict)
    p: int = _key(2, {'simulate': 3, 'deflate-ratio': 3},
                  fault=_below(1, 'degree must be at least 1'))
    # eigenpair count for Lanczos-only spectra
    k: int = _key(None, reads={'spectrum'},
                  fault=_below(1, 'k must be at least 1'))
    levels: int = _key(4, reads={'convergence'}, fault=_below(
        3, 'a convergence study needs at least 3 refinement levels'))
    dirichlet: bool = _key(
        False, {'convergence': True},
        {'spectrum', 'convergence', 'deflate-ratio', 'bandwidth-report'},
        lambda v, kind: kind == 'convergence' and not v and (
            'the smallest frequency needs Dirichlet conditions '
            '(dirichlet = false leaves K singular)'))
    safeguard: float = _key(0.85, reads={'simulate', 'deflate-ratio'},
                            fault=lambda v, kind: not 0 < v <= 1
                            and 'safeguard must lie in (0, 1]')
    tspan: float = _key(1.0, {'simulate': 6.0}, {'simulate'},
                        lambda v, kind: not v > 0
                        and 'time span must be positive')
    nangles: int = _key(1, {'trimmed-sweep': 40},
                        {'spectrum', 'trimmed-sweep'},
                        _below(1, 'nangles must be at least 1'))
    # kept only because the benchmark's workload files set threads = 1
    threads: int = _key(1, fault=lambda v, kind: v != 1 and (
        'threads must be 1: sweep angles run in order on one thread'))
    seed: int = _key(0, fault=_below(0, 'seed must be nonnegative'))
    nquad: int = _key(None, fault=_below(1, 'nquad must be at least 1'))
    # elements per direction; a single count broadcasts
    subdivisions: tuple[int, ...] = _key(
        (8,), {'convergence': (4,), 'simulate': (16,),
               'deflate-ratio': (16, 8), 'trimmed-sweep': (20,),
               'bandwidth-report': (6,)},
        fault=lambda v, kind: not (v and min(v) >= 1)
        and 'subdivisions must be positive')
    ranks: tuple[int, ...] = _key(
        (), {'deflate-ratio': (10, 20, 40)}, {'spectrum', 'deflate-ratio'},
        lambda v, kind: (not all(r >= 1 for r in v)
                         and 'deflation ranks must be positive')
        or (kind == 'deflate-ratio' and not v
            and 'deflate-ratio needs at least one rank'))
    # time spans of the ratio study
    horizons: tuple[float, ...] = _key(
        (), reads={'deflate-ratio'}, fault=lambda v, kind: not all(
            t > 0 for t in v) and 'horizons must be positive')
    pencils: tuple[str, ...] = _key(('M', 'P1'), {
        'simulate': ('P1', 'P2', 'P3'), 'deflate-ratio': ('P1',),
        'trimmed-sweep': ('M', 'P1', 'P2', 'rowsum'),
        'bandwidth-report': ('M', 'H1', 'H2', 'H3')}, fault=_pencil_fault)
    density: str = _key(
        'one', {'convergence': 'nonseparable'}, {
            'spectrum', 'convergence', 'deflate-ratio', 'trimmed-sweep',
            'bandwidth-report'},
        lambda v, kind: v not in ('one', 'nonseparable')
        and 'density must be "one" or "nonseparable"')
    out: str = _key('out')
    source: str = field(default='', repr=False, compare=False)
    lines: dict = field(default_factory=dict, repr=False, compare=False)

    def where(self, key):
        """Config location of key, or the defaulted key, for messages. An
        unset geometry is located at its first geometry.* line, if any."""
        if key == 'geometry' and key not in self.lines:
            key = min((k for k in self.lines if k.startswith('geometry.')),
                      key=self.lines.get, default=key)
        if key in self.lines:
            return '%s:%d' % (self.source, self.lines[key])
        return '%s (default %s)' % (self.source or '<config>', key)


_KEYS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
# the geometry.* keys of rotated_square and their defaults
_TRIM_DEFAULTS = {'cx': 0.5, 'cy': 0.5, 'half_side': 0.35}
# the kinds that need a single patch, with what they say otherwise
_SINGLE_PATCH = {
    'convergence': 'convergence studies run on a single patch',
    'bandwidth-report': 'bandwidth structure needs a single tensor patch'}
_TRUTH = {**dict.fromkeys(('true', 'yes', 'on', '1'), True),
          **dict.fromkeys(('false', 'no', 'off', '0'), False)}


def _coerce(typ, raw, where):
    """raw as a typ value; a tuple[t, ...] splits raw at commas and blanks.
    A float must be finite."""
    if getattr(typ, '__origin__', None) is tuple:
        return tuple(_coerce(typ.__args__[0], part, where)
                     for part in raw.replace(',', ' ').split())
    try:
        val = _TRUTH[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError('%s: expected %s, got %r'
                          % (where, typ.__name__, raw)) from None
    if typ is float and not math.isfinite(val):
        raise ConfigError('%s: expected a finite number, got %r'
                          % (where, raw))
    return val


def _num(raw, where):
    """A geometry.* value: an int, or else a finite float."""
    try:
        return int(raw)
    except ValueError:
        pass
    return _coerce(float, raw, where)


def parse_config(path):
    """Read one experiment from a key = value file, validated and defaulted.

    Unknown keys, malformed values and out-of-range settings raise
    ConfigError with the offending file:line.
    """
    try:
        with open(path, 'r', encoding='utf-8') as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError('cannot read config %s: %s' % (path, exc)) from None

    entries = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        if '=' not in line:
            raise ConfigError('%s:%d: expected key = value, got %r'
                              % (path, lineno, line))
        key, _, val = line.partition('=')
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError('%s:%d: empty key or value' % (path, lineno))
        if key in entries:
            raise ConfigError('%s:%d: duplicate key %r' % (path, lineno, key))
        entries[key] = (val, lineno)

    if 'kind' not in entries:
        raise ConfigError('%s: missing required key "kind"' % path)

    cfg = ExperimentConfig(kind='', source=path,
                           lines={k: ln for k, (_v, ln) in entries.items()})
    for key, (val, lineno) in entries.items():
        where = '%s:%d' % (path, lineno)
        if key in _KEYS:
            setattr(cfg, key, _coerce(_KEYS[key].type, val, where))
        elif key.startswith('geometry.'):
            cfg.geometry_params[key[len('geometry.'):]] = _num(val, where)
        else:
            raise ConfigError('%s: unknown key %r' % (where, key))

    if cfg.kind not in RUNNERS:
        raise ConfigError('%s: unknown experiment kind %r (choose from %s)'
                          % (cfg.where('kind'), cfg.kind, ', '.join(RUNNERS)))
    for key, f in _KEYS.items():
        if key not in entries and cfg.kind in f.metadata['by_kind']:
            setattr(cfg, key, f.metadata['by_kind'][cfg.kind])
    _validate(cfg)
    return cfg


def _validate(cfg):
    def require(ok, key, msg):
        if not ok:
            raise ConfigError('%s: %s' % (cfg.where(key), msg))

    for key in cfg.lines:
        readers = _KEYS[key.partition('.')[0]].metadata['reads']
        require(readers is None or cfg.kind in readers, key,
                'key %r is not read by %s runs' % (key, cfg.kind))
    for key, f in _KEYS.items():
        fault = f.metadata['fault'](getattr(cfg, key), cfg.kind)
        require(not fault, key, fault)
    require(not (cfg.ranks and cfg.k is not None), 'ranks',
            'scaled-pencil curves need the dense route; drop k')

    if cfg.geometry == 'rotated_square':
        require(cfg.kind in ('spectrum', 'trimmed-sweep'), 'geometry',
                'rotated_square is only available for spectrum and '
                'trimmed-sweep runs')
        extra = set(cfg.geometry_params) - set(_TRIM_DEFAULTS)
        require(not extra, 'geometry',
                'unknown trim parameters %s' % sorted(extra))
        require({**_TRIM_DEFAULTS, **cfg.geometry_params}['half_side'] > 0,
                'geometry', 'half_side must be positive')
        for key in ('k', 'ranks', 'dirichlet'):
            require(key not in cfg.lines, key,
                    'key %r is not available on trimmed spectra' % key)
    else:
        require(cfg.kind != 'trimmed-sweep', 'geometry',
                'trimmed-sweep requires geometry = rotated_square')
        require('nangles' not in cfg.lines, 'nangles',
                "key 'nangles' is read only on geometry = rotated_square")
        try:
            patches, _ifaces = catalog(cfg.geometry, **cfg.geometry_params)
        except KeyError:
            raise ConfigError('%s: unknown geometry id %r'
                              % (cfg.where('geometry'), cfg.geometry)) \
                from None
        except (TypeError, ValueError) as exc:
            raise ConfigError('%s: bad geometry parameters: %s'
                              % (cfg.where('geometry'), exc)) from None
        require(len(patches) == 1 or cfg.kind not in _SINGLE_PATCH,
                'geometry', _SINGLE_PATCH.get(cfg.kind))
    d = 2 if cfg.geometry == 'rotated_square' else patches[0].ndim
    for label in cfg.pencils:
        require(label[0] != 'H' or int(label[1:]) <= d, 'pencils',
                'pencil %s: level out of range' % label)
    if cfg.kind == 'simulate':
        require(cfg.geometry == 'plate_hole', 'geometry',
                'simulate uses the manufactured plate problem; '
                'set geometry = plate_hole')


def apply_overrides(cfg, out=None, seed=None):
    """Fold command-line flag values over the parsed config."""
    updates = {key: value for key, value in (('out', out), ('seed', seed))
               if value is not None}
    for key, value in updates.items():
        fault = _KEYS[key].metadata['fault'](value, cfg.kind)
        if fault:
            # seed's message opens with the key: --seed ...
            raise ConfigError('--' + fault)
    return replace(cfg, **updates) if updates else cfg


# --------------------------------------------------------------- assembly

@contextlib.contextmanager
def _located(where, cfg=None, key=None):
    """Prefix where to a ValueError, LinAlgError or ArpackError raised
    inside: a ConfigError at cfg's key if key is given, else a ValueError."""
    try:
        yield
    except (ValueError, spla.ArpackError) as exc:
        if key is not None:
            raise ConfigError('%s: %s: %s'
                              % (cfg.where(key), where, exc)) from None
        raise ValueError('%s: %s' % (where, exc)) from None


def _broadcast_subs(cfg, d):
    subs = cfg.subdivisions
    if len(subs) == 1:
        return subs * d
    if len(subs) != d:
        raise ConfigError('%s: got %d subdivision counts for a %dd geometry'
                          % (cfg.where('subdivisions'), len(subs), d))
    return subs


def _density_field(cfg):
    """rho of cfg.density. A value <= 0 at a quadrature point is a config
    error: the mass matrix would not be positive definite."""
    if cfg.density == 'one':
        return lambda *xs: 1.0

    def rho(*xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        prod, total = xs[0], xs[0]
        for x in xs[1:]:
            prod = prod * x
            total = total + x
        value = np.abs(np.sin(prod)) + total + 1.0
        bad = np.flatnonzero(value <= 0)
        if len(bad):
            raise ConfigError(
                '%s: density %s is %.6g <= 0 at (%s) on geometry %s'
                % (cfg.where('density'), cfg.density, value.flat[bad[0]],
                   ', '.join('%.6g' % x.flat[bad[0]] for x in xs),
                   cfg.geometry))
        return value
    return rho


def _build_spaces(cfg, patches, interfaces, dirichlet, subs=None):
    """One space per patch, clamped on the outer faces if dirichlet."""
    d = patches[0].ndim
    if subs is None:
        subs = _broadcast_subs(cfg, d)
    outer = set(outer_faces(patches, interfaces)) if dirichlet else set()
    spaces = [SplineSpace([make_open_uniform(n, cfg.p, cfg.p - 1)
                           for n in subs],
                          dirichlet=[[(ip, l, s) in outer for s in (0, 1)]
                                     for l in range(d)])
              for ip in range(len(patches))]
    if not any(space.num_free for space in spaces):
        raise ConfigError('%s: subdivisions %s leave no free dof at p = %d '
                          'with Dirichlet conditions'
                          % (cfg.where('subdivisions'), subs, cfg.p))
    return spaces


def _params(params):
    """', name value' for each of params, in name order, for messages."""
    return ''.join(', %s %g' % kv for kv in sorted(params.items()))


def _assemble(cfg, subs=None):
    """The pair on the geometry, at subs if given; a fault of the map, such
    as a singular jacobian, is a config error at the geometry."""
    patches, interfaces = catalog(cfg.geometry, **cfg.geometry_params)
    rho = _density_field(cfg)
    spaces = _build_spaces(cfg, patches, interfaces, cfg.dirichlet, subs)
    with _located('geometry ' + cfg.geometry + _params(cfg.geometry_params),
                  cfg, 'geometry'):
        if len(patches) == 1:
            return assemble_single_patch(spaces[0], patches[0], rho,
                                         nquad=cfg.nquad)
        topo = MultipatchTopology(spaces, interfaces)
        return assemble_multipatch(topo, patches, rho, nquad=cfg.nquad)[0]


def _assemble_trimmed_at(cfg, angle):
    patches, _ifaces = catalog('unit_square')
    space = _build_spaces(cfg, patches, [], False)[0]
    trim = {**_TRIM_DEFAULTS, **cfg.geometry_params}
    region = rotated_square_region(center=(trim['cx'], trim['cy']),
                                   angle=angle, half_side=trim['half_side'])
    # on the unit square only an empty trimmed system raises here
    with _located('angle %.6g%s' % (angle, _params(trim)), cfg, 'geometry'):
        return assemble_trimmed(space, patches[0], region,
                                _density_field(cfg), nquad=cfg.nquad)


def _mass_variant(cfg, pair, label):
    """The mass matrix the pencil label selects."""
    if label == 'M':
        return pair.M
    if label == 'rowsum':
        return lump_rowsum(pair.M)
    kw = {'i' if label[0] == 'P' else 'level': int(label[1:])}
    with _located('pencil %s' % label, cfg, 'pencils'):
        return lump_pieces(pair.pieces, pair.M.shape[0], **kw)


# ------------------------------------------------------------ eigensolves

def _top_pairs(cfg, K, Mvar, k, factor):
    """Converged top k pairs of (K, Mvar), with factor Mvar's Cholesky."""
    n = K.shape[0]
    res = lanczos(K, factor, Mvar, k, seed=cfg.seed)
    if not np.all(res.converged):
        raise ValueError('eigensolver failed to converge (n = %d, k = %d, '
                         'worst relative residual %.3g)'
                         % (n, len(res.converged), np.max(res.residuals)))
    return res


def _lambda_max(K, Mvar, factor):
    """Largest generalized eigenvalue of (K, Mvar), with factor the caller's
    Cholesky of Mvar: K_00 / Mvar_00 at n = 1, above that one ARPACK call
    with factor as Minv, from a start vector drawn from default_rng(0).
    By Sylvester's law of inertia no eigenvalue lies at or above
    sigma = lam (1 + 1e-9) exactly when sigma Mvar - K is positive
    definite: lam is refused if that matrix has no banded Cholesky."""
    n = K.shape[0]
    if n == 1:
        return float(_as_csr(K)[0, 0] / _as_csr(Mvar)[0, 0])
    inv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
    # a constant start can be orthogonal to the top eigenspace of a
    # symmetric mesh, and ARPACK then converges below it
    lam = float(spla.eigsh(_as_csr(K), k=1, M=_as_csr(Mvar), which='LA',
                           Minv=inv, return_eigenvectors=False,
                           v0=np.random.default_rng(0).standard_normal(n))[0])
    sigma = lam * (1 + 1e-9)
    try:
        _mass_factor(sigma * _as_csr(Mvar) - _as_csr(K))
    except ValueError:
        raise ValueError('largest eigenvalue %.10g misses the top of the '
                         'spectrum: an eigenvalue lies at or above %.10g'
                         % (lam, sigma)) from None
    return lam


def _lambda_min(K, Mvar):
    """Smallest generalized eigenvalue of (K, Mvar).

    A mass with a nonpositive diagonal entry is refused, naming it; at
    n = 1 the answer is K_00 / Mvar_00. Above, Mvar's banded Cholesky
    refuses an indefinite mass at every size, and one ARPACK call finds
    the smallest shift-inverted about 0 through K's banded factor, from
    the constant vector. It must exceed 1e-8 max_i K_ii / Mvar_ii, a
    Rayleigh quotient and so at most 1e-8 lambda_max, which refuses the
    roundoff eigenvalue of a singular K.
    """
    n = K.shape[0]
    dK, dM = _as_csr(K).diagonal(), _as_csr(Mvar).diagonal()
    j = int(np.argmin(dM))
    if not dM[j] > 0:
        raise ValueError('mass-side matrix is not positive definite: '
                         'diagonal entry %d is %.3g' % (j, dM[j]))
    if n == 1:
        lam = float(dK[0] / dM[0])
    else:
        _mass_factor(Mvar)  # refuses an indefinite mass; dropped before K's
        inv = spla.LinearOperator((n, n), matvec=_mass_factor(K).solve,
                                  dtype=float)
        lam = float(spla.eigsh(_as_csr(K), k=1, M=_as_csr(Mvar), sigma=0.0,
                               OPinv=inv, v0=np.full(n, n ** -0.5),
                               return_eigenvectors=False)[0])
    floor = 1e-8 * np.max(dK / dM)
    if not lam > floor:
        raise ValueError('smallest eigenvalue %.3g is not positive '
                         '(floor %.3g)' % (lam, floor))
    return lam


# ------------------------------------------------------------------ output

def _cell(v):
    if isinstance(v, str):
        return v
    return '%d' % v if isinstance(v, (int, np.integer)) else '%.17g' % v


@contextlib.contextmanager
def _output(cfg, name):
    """The path of name under cfg.out, made first. An OSError making the
    directory or writing the file is a ConfigError naming the directory."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        yield os.path.join(cfg.out, name)
    except OSError as exc:
        raise ConfigError('cannot write output directory %s: %s'
                          % (cfg.out, exc.strerror or exc)) from None


def _write_csv(cfg, name, header, rows):
    """Write a table under cfg.out and return its path: ints as %d, floats
    as %.17g (they read back exactly), strings as they are."""
    with _output(cfg, name) as path, open(path, 'w') as f:
        f.write(header + '\n')
        for row in rows:
            f.write(','.join(_cell(v) for v in row) + '\n')
    return path


def _save_plot(cfg, name, series, **axes):
    """Save (x, y, label) series under cfg.out with LinePlot axes."""
    plot = LinePlot(**axes)
    for x, y, label in series:
        plot.add(x, y, label)
    with _output(cfg, name) as path:
        plot.save(path)
    return path


def _spectrum_rows(spectra):
    return [(k, lam, label) for label, vals in spectra
            for k, lam in enumerate(np.asarray(vals, dtype=float), 1)]


# ----------------------------------------------------------------- runners

def run_spectrum(cfg):
    """Full (or top-k) spectra of (K, M~) for each selected pencil."""
    if cfg.geometry == 'rotated_square':
        angles, results = _trimmed_sweep(cfg, _dense_eigenvalues)
        written = [_write_csv(cfg, 'spectrum_ang%03d.csv' % idx,
                              'k,lambda,label', _spectrum_rows(spectra))
                   for idx, (_n, spectra) in enumerate(results)]
        written.append(_write_csv(
            cfg, 'sweep_summary.csv', 'angle,n_active,label,lambda_max',
            [(angle, n, label, vals[-1])
             for angle, (n, spectra) in zip(angles, results)
             for label, vals in spectra]))
        written.append(_plot_lambda_max(cfg, angles, results, 'sweep.svg'))
        return written
    pair = _assemble(cfg)
    n = pair.K.shape[0]
    if cfg.k is not None and cfg.k > n:
        raise ConfigError('%s: k = %d exceeds the system size n = %d'
                          % (cfg.where('k'), cfg.k, n))
    if cfg.k is None and n > DENSE_CAP:
        raise ConfigError('%s: %d dofs exceed the dense oracle cap %d; '
                          'set k for a Lanczos-only spectrum'
                          % (cfg.where('subdivisions'), n, DENSE_CAP))

    # the scaled-pencil curves deflate the first lumped pencil, whose
    # eigenvectors are kept from its dense solve
    base = next((lb for lb in cfg.pencils if lb != 'M'), cfg.pencils[0])
    spectra = []
    for label in cfg.pencils:
        Mvar = _mass_variant(cfg, pair, label)
        with _located('pencil %s' % label):
            if cfg.k is not None:
                vals = np.sort(_top_pairs(cfg, pair.K, Mvar, cfg.k,
                                         _mass_factor(Mvar)).values)
            elif cfg.ranks and label == base:
                vals, Ubase = dense_generalized_eig(pair.K, Mvar)
                Mbase, w = Mvar, vals
            else:
                vals = _dense_eigenvalues(pair.K, Mvar)
        spectra.append((label, vals))

    for r in cfg.ranks:
        eigendata = (w[::-1][:r + 1], Ubase[:, ::-1][:, :r + 1])
        with _located('rank %d' % r, cfg, 'ranks'):
            pencil = deflate(pair.K, Mbase, r, 'scale-mass', eigendata)
        with _located('pencil %s, rank %d' % (base, r)):
            wbar = _dense_eigenvalues(*pencil.dense_pair())
        spectra.append(('%s+r%d' % (base, r), wbar))

    csv = _write_csv(cfg, 'spectrum.csv', 'k,lambda,label',
                     _spectrum_rows(spectra))
    svg = _save_plot(cfg, 'spectrum.svg',
                     [(np.arange(1, len(vals) + 1), vals, label)
                      for label, vals in spectra],
                     title='%s, p=%d' % (cfg.geometry, cfg.p),
                     xlabel='mode index k', ylabel='lambda_k')
    return [csv, svg]


def run_convergence(cfg):
    """Smallest-frequency error under mesh refinement, one curve per pencil,
    against the consistent mass one level finer than the finest."""
    patches, _ifaces = catalog(cfg.geometry, **cfg.geometry_params)
    base = _broadcast_subs(cfg, patches[0].ndim)

    def omega1(pair, label, level):
        Mvar = _mass_variant(cfg, pair, label)
        with _located('%s, pencil %s' % (level, label)):
            lam = _lambda_min(pair.K, Mvar)
        return math.sqrt(lam)

    hs, errors = [], {label: [] for label in cfg.pencils}
    ref_subs = tuple(n * 2 ** cfg.levels for n in base)
    omega_ref = omega1(_assemble(cfg, ref_subs), 'M',
                       'reference level, subdivisions %s' % (ref_subs,))
    for level in range(cfg.levels):
        subs = tuple(n * 2 ** level for n in base)
        hs.append(1.0 / min(subs))
        pair = _assemble(cfg, subs)
        for label in cfg.pencils:
            w = omega1(pair, label, 'level %d, subdivisions %s'
                       % (level + 1, subs))
            errors[label].append((omega_ref - w) / omega_ref)

    csv = _write_csv(cfg, 'convergence.csv', 'h,' + ','.join(cfg.pencils),
                     [[h] + [errors[lb][i] for lb in cfg.pencils]
                      for i, h in enumerate(hs)])
    slopes = {}
    for label in cfg.pencils:
        loge = np.log(np.abs(np.asarray(errors[label])))
        slopes[label] = float(np.polyfit(np.log(hs), loge, 1)[0])
    slopes_csv = _write_csv(cfg, 'slopes.csv', 'label,slope',
                            list(slopes.items()))
    svg = _save_plot(cfg, 'convergence.svg',
                     [(hs, np.abs(errors[label]),
                       '%s (slope %.2f)' % (label, slopes[label]))
                      for label in cfg.pencils],
                     title='smallest-frequency convergence, p=%d' % cfg.p,
                     xlabel='h', ylabel='|relative error|',
                     xlog=True, ylog=True)
    return [csv, slopes_csv, svg]


def run_simulate(cfg):
    """Manufactured plate runs per mass treatment, at shared and own steps."""
    patches, _ifaces = catalog(cfg.geometry)
    space = _build_spaces(cfg, patches, [], True)[0]
    # the consistent mass projects the initial data and sets the shared step
    with _located('pencil M'):
        prob = manufactured_wave_problem(space, patches[0], nquad=cfg.nquad)
        K = prob.pair.K
        lam_M = _lambda_max(K, prob.pair.M, prob.mass)
    dt_shared = cfg.safeguard * critical_timestep(lam_M)

    def error_table(traj):
        """Columns t, norm and relative L2 error at about 240 steps."""
        stride = max(1, traj.nsteps // 240)
        idx = list(range(0, len(traj.times), stride))
        if idx[-1] != len(traj.times) - 1:
            idx.append(len(traj.times) - 1)
        t, u = traj.times[idx], traj.samples[idx]
        errs = l2_error(prob.grid, u, prob.exact, t=t) \
            / l2_norm(prob.grid, prob.exact, t=t)
        return np.column_stack((t, np.linalg.norm(u, axis=1), errs))

    tables, curves = [], []
    for label in cfg.pencils:
        Mvar = _mass_variant(cfg, prob.pair, label)
        with _located('pencil %s' % label):
            # the factor behind lam also drives the stepping
            factor = prob.mass if label == 'M' else _mass_factor(Mvar)
            lam = lam_M if label == 'M' else _lambda_max(K, Mvar, factor)
            dt_own = cfg.safeguard * critical_timestep(lam)
            for tag, dt in (('shared', dt_shared), ('critical', dt_own)):
                traj = central_difference(factor, K, prob.f, prob.u0,
                                          prob.v0, dt, cfg.tspan)
                if not traj.stable:
                    raise ValueError('simulation blew up at step %d of dt=%g'
                                     % (traj.blown_up_at, dt))
                table = error_table(traj)
                tables.append(('sim_%s_%s.csv' % (label, tag), table))
                if tag == 'shared':
                    curves.append((table[:, 0], table[:, 2], label))

    written = [_write_csv(cfg, name, 't,norm,l2_error', table)
               for name, table in tables]
    written.append(_save_plot(
        cfg, 'simulate.svg', curves,
        title='plate, p=%d, shared dt=%.3g' % (cfg.p, dt_shared),
        xlabel='t', ylabel='relative L2 error', ylog=True))
    return written


def run_deflate_ratio(cfg):
    """Cost ratio (N_s + N_i) / N_w of deflated vs plain stepping over T."""
    pair = _assemble(cfg)
    label = cfg.pencils[0]
    K, Mvar = pair.K, _mass_variant(cfg, pair, label)
    del pair  # the consistent mass stays out of the solves' peak memory
    with _located('pencil %s' % label):
        factor = _mass_factor(Mvar)
    n = K.shape[0]

    per_rank = []
    for r in cfg.ranks:
        if r + 1 > n:
            raise ConfigError('%s: rank %d needs %d eigenpairs but the '
                              'problem has %d dofs'
                              % (cfg.where('ranks'), r, r + 1, n))
        with _located('pencil %s, rank %d' % (label, r)):
            res = _top_pairs(cfg, K, Mvar, r + 1, factor)
        per_rank.append((r, float(res.values[0]), float(res.values[r]),
                         res.n_iter, res.n_matvec))
        # keep no Ritz vectors alive through the next rank's solve
        del res

    horizons = cfg.horizons
    if not horizons:
        # center the grid on the break-even horizon of each rank that
        # lengthens the step
        stars = []
        for r, lam_n, lam_cut, n_iter, _nm in per_rank:
            rate_w = 1.0 / (cfg.safeguard * critical_timestep(lam_n))
            rate_s = 1.0 / (cfg.safeguard * critical_timestep(lam_cut))
            if rate_w > rate_s:
                stars.append(n_iter / (rate_w - rate_s))
        if not stars:
            raise ConfigError('%s: ranks %s keep lambda_cut = lambda_n = %.10g'
                              ', so no horizon breaks even; set horizons'
                              % (cfg.where('horizons'), ' '.join(
                                  map(str, cfg.ranks)), per_rank[0][1]))
        center = math.exp(np.mean(np.log(stars)))
        horizons = tuple(center * 2.0 ** e for e in range(-3, 4))

    rows = []
    for r, lam_n, lam_cut, n_iter, n_matvec in per_rank:
        for T in horizons:
            N_w = step_count(T, lam_n, cfg.safeguard)
            N_s = step_count(T, lam_cut, cfg.safeguard)
            if N_w == 0:
                dt = cfg.safeguard * critical_timestep(lam_n)
                msg = ('rank %d: horizon T = %g is shorter than one step '
                       'dt = %g' % (r, T, dt))
                if cfg.horizons:
                    raise ConfigError('%s: %s' % (cfg.where('horizons'), msg))
                raise ValueError(msg)
            rows.append((r, T, N_w, N_s, n_iter, n_matvec,
                         (N_s + n_iter) / N_w))
    csv = _write_csv(cfg, 'deflate_ratio.csv',
                     'rank,T,N_w,N_s,N_i,n_matvec,ratio', rows)
    series = [([row[1] for row in rows if row[0] == r],
               [row[6] for row in rows if row[0] == r], 'r=%d' % r)
              for r in cfg.ranks]
    series.append(([min(horizons), max(horizons)], [1.0, 1.0], 'break-even'))
    svg = _save_plot(cfg, 'deflate_ratio.svg', series,
                     title='deflation break-even on (K, %s)' % label,
                     xlabel='T', ylabel='(N_s + N_i) / N_w', xlog=True)
    return [csv, svg]


def _trimmed_sweep(cfg, eigenvalues):
    """Angles and, per angle, (n_active, [(label, eigenvalues(A, B))]).

    A, B is the Jacobi-rescaled pair of each pencil, and eigenvalues returns
    ascending values whose last is the largest; it refuses an indefinite
    pencil with 'mass-side matrix is not positive definite'.
    """
    angles = [2.0 * math.pi * i / cfg.nangles for i in range(cfg.nangles)]

    def one(angle):
        pair = _assemble_trimmed_at(cfg, angle)
        spectra = []
        for label in cfg.pencils:
            Mvar = _mass_variant(cfg, pair, label)
            with _located('angle %.6g, pencil %s' % (angle, label)):
                spectra.append((label, eigenvalues(
                    *jacobi_rescale(pair.K, Mvar))))
        return pair.K.shape[0], spectra

    return angles, [one(angle) for angle in angles]


def _plot_lambda_max(cfg, angles, results, name):
    """lambda_max of each pencil over the trim angles, saved as name."""
    return _save_plot(
        cfg, name,
        [(angles, [spectra[j][1][-1] for _n, spectra in results], label)
         for j, label in enumerate(cfg.pencils)],
        title='trimmed rotated square, p=%d' % cfg.p,
        xlabel='rotation angle', ylabel='lambda_max', ylog=True)


def _sweep_lambda_max(A, B):
    """[lambda_max] of (A, B) through _lambda_max, with B's banded Cholesky
    as the pencil's one definiteness check."""
    try:
        factor = _mass_factor(B)
    except ValueError as exc:
        raise ValueError('mass-side %s' % exc) from None
    return [_lambda_max(A, B, factor)]


def run_trimmed_sweep(cfg):
    """lambda_max of each pencil over a sweep of trim rotation angles."""
    angles, results = _trimmed_sweep(cfg, _sweep_lambda_max)
    csv = _write_csv(cfg, 'trimmed_sweep.csv',
                     'angle,n_active,label,lambda_max,spd',
                     [(angle, n, label, vals[-1], 1)
                      for angle, (n, spectra) in zip(angles, results)
                      for label, vals in spectra])
    return [csv, _plot_lambda_max(cfg, angles, results, 'trimmed_sweep.svg')]


def run_bandwidth_report(cfg):
    """Predicted vs measured scalar bandwidths of the lumped families."""
    pair = _assemble(cfg)
    rows = []
    for label in cfg.pencils:
        Mvar = _mass_variant(cfg, pair, label)
        pred = Mvar.scalar_bandwidth()
        meas = Mvar.measured_bandwidth()
        rows.append((label, Mvar.shape[0],
                     'x'.join(str(b) for b in Mvar.bandwidths),
                     pred, meas, int(pred == meas)))
    return [_write_csv(cfg, 'bandwidth.csv',
                       'label,n,bandwidths,predicted,measured,equal', rows)]


RUNNERS = {
    'spectrum': run_spectrum,
    'convergence': run_convergence,
    'simulate': run_simulate,
    'deflate-ratio': run_deflate_ratio,
    'trimmed-sweep': run_trimmed_sweep,
    'bandwidth-report': run_bandwidth_report,
}
