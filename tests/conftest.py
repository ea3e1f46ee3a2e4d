"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import igalump

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(igalump.__file__)))


@pytest.fixture(params=[[], ['-O']], ids=['plain', 'optimized'])
def rejections(request):
    """Exception names of constructor calls, run plain and under -O.

    The returned function takes setup code and a list of call expressions,
    runs them in a fresh interpreter and returns, per call, the name of the
    exception it raised or 'accepted'. Validation that rests on assert lets
    every call through under -O.
    """
    def run(setup, calls):
        code = '\n'.join([setup,
                          'for call in %r:' % (calls,),
                          '    try:',
                          '        eval(call)',
                          '    except Exception as exc:',
                          '        print(type(exc).__name__)',
                          '    else:',
                          '        print("accepted")'])
        env = dict(os.environ)
        env['PYTHONPATH'] = os.pathsep.join(
            [_SRC] + [p for p in [env.get('PYTHONPATH')] if p])
        done = subprocess.run([sys.executable] + request.param + ['-c', code],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return done.stdout.splitlines()
    return run
