import contextlib
import io
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from ambitrace.data_io import ModelConfig
from ambitrace.model import (_backward, _forward, _Workspace, ccc_loss_grad, init_params,
                             stack_params)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class CliResult:
    """What a command line left: its exit code, stdout and stderr.

    ``exception`` is the ``SystemExit`` of a non-zero exit, or the exception
    of a program fault; None after a success.
    """
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(args):
    """Run ``ambitrace ARGS`` in this process.

    ``ambitrace.cli`` is looked up at each call, so a test that imports the
    package anew runs the new one.  A program fault is exit 1 with its
    traceback on stderr, as the interpreter would end it.
    """
    from ambitrace.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main([str(a) for a in args])
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
            exception = exc if exit_code else None
        except Exception as exc:
            traceback.print_exc()
            exit_code, exception = 1, exc
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue(), exception)


def run_fresh(code, env=None):
    """Run ``code`` in a new interpreter that imports this checkout's package.

    ``env`` replaces the inherited environment; ``PYTHONPATH`` is extended
    either way.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)


def run_with_file_size_limit(args, limit):
    """Run the command line ``args`` in a new interpreter that cannot write a file
    past ``limit`` bytes.

    ``RLIMIT_FSIZE`` is set in the child only, so this process's writes are
    not limited.  The child ignores ``SIGXFSZ``, so a write past the limit
    fails with ``EFBIG`` (``File too large``) instead of ending the process.
    """
    return run_fresh("import resource, signal\n"
                     "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                     f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                     "from ambitrace.cli import main\n"
                     f"main({[str(a) for a in args]!r})\n")


def batch_workspace(cfg, flat, *batches):
    """A workspace for the models of ``flat``, planned for (M, B, T, D) batches
    of the shapes of ``batches``."""
    return _Workspace(cfg, len(flat), [(X.shape[2], X.shape[1]) for X in batches], flat.dtype)


def gradient_check(
    input_dim=3, hidden_dim=4, steps=5, seed=0, h=1e-5, zero_feature=None
):
    """Max relative error between analytic and central-difference gradients.

    Runs one CCC-loss backward pass through a stack of tiny models, one
    per seed (``seed`` is an int or a sequence of ints), each on its own
    random sequence, and perturbs every parameter entry of every model,
    in stored form: negation is exact, so the error is the one the
    un-negated parameters give.  ``zero_feature`` blanks a feature column
    so the corresponding input weights receive zero gradient.
    """
    seeds = [seed] if np.isscalar(seed) else list(seed)
    cfgs = [ModelConfig(input_dim=input_dim, hidden_dim=hidden_dim, seed=s) for s in seeds]
    xs, targets = [], []
    for s in seeds:
        rng = np.random.default_rng(s + 10_000)
        x = rng.normal(size=(steps, input_dim))
        if zero_feature is not None:
            x[:, zero_feature] = 0.0
        xs.append(x)
        targets.append(rng.normal(size=steps))
    x = np.stack(xs)[:, None]
    target = np.stack(targets)[:, None]
    cfg = cfgs[0]
    flat, params = stack_params([init_params(c) for c in cfgs], cfg)
    ws = batch_workspace(cfg, flat, x)

    def losses():
        pred, _ = _forward(params, cfg, x, ws)
        value, _ = ccc_loss_grad(pred, target)
        return value[:, 0]

    pred, cache = _forward(params, cfg, x, ws)
    _, dy = ccc_loss_grad(pred, target)
    analytic = _backward(params, cfg, cache, dy).copy()

    max_err = 0.0
    for m, j in np.ndindex(flat.shape):
        orig = flat[m, j]
        flat[m, j] = orig + h
        up = losses()[m]
        flat[m, j] = orig - h
        down = losses()[m]
        flat[m, j] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic[m, j]
        scale = max(abs(a), abs(numeric))
        # Below ~1e-6 the central difference is dominated by float
        # roundoff, so compare absolutely there.
        err = abs(a - numeric) if scale < 1e-6 else abs(a - numeric) / scale
        max_err = max(max_err, err)
    return max_err
