"""Fresh-interpreter probe: set-up time and, optionally, peak memory.

Usage: python3 probe.py SRC_DIR MODE ARGV_JSON

Imports ``halpha_sim.cli`` from SRC_DIR and resolves the first argument
vector of ARGV_JSON (a JSON list of CLI argument lists). With MODE ``run`` it
then runs every argument vector through ``cli.main``. It prints one JSON line:
``ready`` (time.monotonic() once the config is resolved, comparable with the
parent's monotonic clock), ``rss_kib`` (peak resident set size) and ``codes``
(the exit code of each run).
"""

import sys
import time

if __name__ == "__main__":
    src, mode, argv_json = sys.argv[1:]
    sys.path.insert(0, src)
    from halpha_sim import cli

    import contextlib
    import json
    import os
    import resource

    argvs = json.loads(argv_json)
    cli.parse_config(argvs[0])
    ready = time.monotonic()
    codes = []
    if mode == "run":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [cli.main(argv) for argv in argvs]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "rss_kib": rss_kib, "codes": codes}))
