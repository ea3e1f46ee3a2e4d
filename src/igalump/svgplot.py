"""Minimal SVG line plots: linear or log axes, legend, nothing else.

Output is plain text built from the data alone, so identical inputs give
byte-identical files.
"""

import math

_PALETTE = ('#1f6fb2', '#d95f02', '#1b9e77', '#7570b3',
            '#e7298a', '#666666', '#a6761d', '#17becf')

_WIDTH, _HEIGHT = 720, 460
_MARGIN = (56, 16, 26, 46)  # left, right, top, bottom


def _esc(text):
    return (str(text).replace('&', '&amp;').replace('<', '&lt;')
            .replace('>', '&gt;'))


def _nice_step(span):
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0):
        if raw <= m * mag * (1.0 + 1e-12):
            return m * mag
    return 10.0 * mag


def _linear_ticks(lo, hi):
    step = _nice_step(hi - lo)
    t = math.ceil(lo / step - 1e-9) * step
    ticks = []
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo, hi):
    # positions in log10 space; falls back to thirds on sub-decade ranges
    first, last = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
    if last >= first:
        return [float(k) for k in range(first, last + 1)]
    return [lo + f * (hi - lo) for f in (0.0, 0.5, 1.0)]


def _fmt(value, log):
    if log:
        value = 10.0 ** value
    return '%g' % value


class LinePlot:
    """Collects labeled series, writes one SVG figure."""

    def __init__(self, title='', xlabel='', ylabel='', xlog=False,
                 ylog=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlog = bool(xlog)
        self.ylog = bool(ylog)
        self.series = []

    def add(self, x, y, label=''):
        xs = [float(v) for v in x]
        ys = [float(v) for v in y]
        if len(xs) != len(ys):
            raise ValueError('x and y lengths differ')
        for vals, log, axis in ((xs, self.xlog, 'x'), (ys, self.ylog, 'y')):
            if log and any(v <= 0.0 for v in vals):
                raise ValueError('log %s axis requires positive data' % axis)
        self.series.append((xs, ys, str(label)))

    def _tf(self, vals, log):
        return [math.log10(v) for v in vals] if log else vals

    def save(self, path):
        if not self.series:
            raise ValueError('nothing to plot')
        ml, mr, mt, mb = _MARGIN
        pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb
        ax = [v for s in self.series for v in self._tf(s[0], self.xlog)]
        ay = [v for s in self.series for v in self._tf(s[1], self.ylog)]
        x0, x1 = min(ax), max(ax)
        y0, y1 = min(ay), max(ay)
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 0.5, y1 + 0.5
        padx, pady = 0.02 * (x1 - x0), 0.04 * (y1 - y0)
        x0, x1 = x0 - padx, x1 + padx
        y0, y1 = y0 - pady, y1 + pady

        def px(v):
            return ml + (v - x0) / (x1 - x0) * pw

        def py(v):
            return mt + (y1 - v) / (y1 - y0) * ph

        out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%d" viewBox="0 0 %d %d">'
               % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT),
               '<rect width="100%" height="100%" fill="white"/>',
               '<g font-family="sans-serif" font-size="11" fill="#333">']
        if self.title:
            out.append('<text x="%.1f" y="16" text-anchor="middle" '
                       'font-size="13">%s</text>'
                       % (ml + pw / 2.0, _esc(self.title)))

        xticks = _log_ticks(x0, x1) if self.xlog else _linear_ticks(x0, x1)
        yticks = _log_ticks(y0, y1) if self.ylog else _linear_ticks(y0, y1)
        for t in xticks:
            gx = px(t)
            out.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                       'stroke="#ddd"/>' % (gx, mt, gx, mt + ph))
            out.append('<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                       % (gx, mt + ph + 14, _esc(_fmt(t, self.xlog))))
        for t in yticks:
            gy = py(t)
            out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                       'stroke="#ddd"/>' % (ml, gy, ml + pw, gy))
            out.append('<text x="%d" y="%.1f" text-anchor="end">%s</text>'
                       % (ml - 6, gy + 4, _esc(_fmt(t, self.ylog))))
        out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                   'stroke="#333"/>' % (ml, mt, pw, ph))
        if self.xlabel:
            out.append('<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                       % (ml + pw / 2.0, _HEIGHT - 8, _esc(self.xlabel)))
        if self.ylabel:
            out.append('<text x="14" y="%.1f" text-anchor="middle" '
                       'transform="rotate(-90 14 %.1f)">%s</text>'
                       % (mt + ph / 2.0, mt + ph / 2.0, _esc(self.ylabel)))

        for i, (xs, ys, _label) in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            tx, ty = self._tf(xs, self.xlog), self._tf(ys, self.ylog)
            points = ' '.join('%.2f,%.2f' % (px(a), py(b))
                              for a, b in zip(tx, ty))
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.6"/>' % (points, color))
            if len(xs) <= 64:
                for a, b in zip(tx, ty):
                    out.append('<circle cx="%.2f" cy="%.2f" r="2.4" '
                               'fill="%s"/>' % (px(a), py(b), color))

        labeled = [(i, s[2]) for i, s in enumerate(self.series) if s[2]]
        if labeled:
            lw = 8 + 6.5 * max(len(lb) for _i, lb in labeled) + 26
            lh = 16 * len(labeled) + 8
            lx, ly = ml + pw - lw - 8, mt + 8
            out.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                       'fill="white" stroke="#999"/>' % (lx, ly, lw, lh))
            for row, (i, lb) in enumerate(labeled):
                cy = ly + 14 + 16 * row
                color = _PALETTE[i % len(_PALETTE)]
                out.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                           'stroke="%s" stroke-width="1.6"/>'
                           % (lx + 6, cy - 4, lx + 24, cy - 4, color))
                out.append('<text x="%.1f" y="%.1f">%s</text>'
                           % (lx + 30, cy, _esc(lb)))
        out.append('</g></svg>')
        with open(path, 'w') as f:
            f.write('\n'.join(out) + '\n')
