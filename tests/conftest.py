import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code, env=None):
    """Run ``code`` in a new interpreter that imports this checkout's package.

    ``env`` replaces the inherited environment; ``PYTHONPATH`` is extended
    either way.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
