"""Time one cold set-up: import gfdetect (CLI included), build and validate a config.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR SETTINGS_JSON``. Prints the
elapsed seconds and the path gfdetect was imported from, as one JSON object.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import gfdetect  # noqa: E402
import gfdetect.cli  # noqa: E402,F401
from gfdetect.harness import ExperimentConfig, apply_settings  # noqa: E402

config = apply_settings(ExperimentConfig(), json.loads(sys.argv[2]))
config.validate()
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": gfdetect.__file__}))
