"""Time one set-up in a fresh interpreter: import fracpoisson, then warm up.

Usage: python3 setup_probe.py <src dir> <scratch dir>.  Prints one JSON
line with ``import_s`` and ``warmup_s``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import fracpoisson  # noqa: E402,F401

_IMPORTED = time.perf_counter()
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import warmup  # noqa: E402

warmup.run(sys.argv[2])
_WARM = time.perf_counter()
print(json.dumps({"import_s": _IMPORTED - _START, "warmup_s": _WARM - _IMPORTED}))
