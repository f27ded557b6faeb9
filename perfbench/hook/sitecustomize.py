"""Interpreter start-up hook of the traced benchmark run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  The benchmark puts this directory on ``PYTHONPATH`` only
for traced runs, so every ``repro`` process of the tier (router, spawned
shard workers) installs :mod:`perfbench_tracer` before it imports ``repro``.
"""

import perfbench_tracer

perfbench_tracer.install_from_env()
