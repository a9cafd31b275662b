"""Time one cold set-up of the program in a fresh interpreter.

Usage: setup_probe.py LOADER=PATH [LOADER=PATH ...]

Measures importing ``tifcsim`` (from ``src/``) and then reading, parsing
and validating each config the way a user's entry point would: ``cli`` via
``tifcsim.cli.load_scenario``, ``scenario`` via
``ScenarioConfig.from_json_obj``, ``experiment`` via
``CovertExperiment.from_json_obj``. Prints the seconds taken.
"""

import sys
import time

START = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import json

    import tifcsim

    for arg in sys.argv[1:]:
        loader, _, path = arg.partition("=")
        if loader == "cli":
            import tifcsim.cli

            tifcsim.cli.load_scenario(path, None)
            continue
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if loader == "scenario":
            tifcsim.ScenarioConfig.from_json_obj(obj)
        elif loader == "experiment":
            tifcsim.CovertExperiment.from_json_obj(obj)
        else:
            sys.exit(f"unknown loader {loader!r}")
    print(repr(time.perf_counter() - START))
