"""Reader for the spectrum CSVs (k, lambda, label) the spectrum runner writes."""

import numpy as np


def read_spectrum_csv(path):
    """Labeled spectra of one file as a list of (label, values)."""
    out = {}
    order = []
    with open(path) as f:
        header = f.readline()
        if header.strip() != 'k,lambda,label':
            raise ValueError('not a spectrum file: %s' % path)
        for line in f:
            _k, lam, label = line.strip().split(',', 2)
            if label not in out:
                out[label] = []
                order.append(label)
            out[label].append(float(lam))
    return [(label, np.array(out[label])) for label in order]
