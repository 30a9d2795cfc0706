"""Time one CLI set-up in a fresh interpreter: import, then load and validate a config.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG [SECTION.KEY=VALUE ...]

Prints one JSON object with ``import_s`` (``import clipopt.cli``),
``load_s`` (config load, overrides and validation through the public
``clipopt.config`` functions, as every CLI call does) and ``total_s``, each
as wall time and (``*_scaled``) at nominal machine speed, sampled with the
interpreter kernel only so that numpy is not loaded before the import is
timed (see speed.py).  Exits 1 if ``clipopt`` is not imported from SRC_DIR.
"""

import sys
import time

from speed import Sampler

sampler = Sampler(kernels=("interp",))
with sampler:
    t0 = time.perf_counter()
    src, config_path, *overrides = sys.argv[1:]
    sys.path.insert(0, src)

    import clipopt.cli  # noqa: E402,F401  (the import is what is timed)

    t1 = time.perf_counter()
    from clipopt import config  # noqa: E402

    cfg = config.load_config(config_path)
    for assignment in overrides:
        config.apply_override(cfg, assignment)
    config.validate_config(cfg)
    t2 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402

if not os.path.abspath(clipopt.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    print(f"clipopt imported from {clipopt.cli.__file__}, not from {src}", file=sys.stderr)
    sys.exit(1)
factor = sampler.factor(t0, t2)
result = {"import_s": t1 - t0, "load_s": t2 - t1, "total_s": t2 - t0, "factor": factor}
for key, (a, b) in {"import_s": (t0, t1), "load_s": (t1, t2), "total_s": (t0, t2)}.items():
    result[key + "_scaled"] = (b - a - sampler.handler_time(a, b)) * factor
print(json.dumps(result))
