"""One traced ``bargtop decide`` process, for the traced cli workload.

Usage: ``python3 cli_child.py SPAWN_NS PHASES_JSON decide --input ... --output ...``

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before the
spawn.  The process runs ``bargtop.cli.main`` on the remaining arguments,
exits with its code, and writes the inclusive time of each phase to
``PHASES_JSON``: interpreter start, import, parse, analyze and report.
"""

import time

_START_NS = time.monotonic_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn_ns, phases_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.monotonic_ns()
    import bargtop.cli as cli

    t1 = time.monotonic_ns()
    phases = {"parse": 0, "analyze": 0, "report": 0}

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            s = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[phase] += time.monotonic_ns() - s

        return functools.update_wrapper(wrapper, fn)

    for phase, names in (
        ("parse", ("_load", "parse_instance")),
        ("analyze", ("analyze",)),
        ("report", ("analysis_report", "write_report")),
    ):
        for name in names:
            setattr(cli, name, timed(phase, getattr(cli, name)))
    code = cli.main(argv)
    out = {
        "interpreter_ms": (_START_NS - spawn_ns) / 1e6,
        "import_ms": (t1 - t0) / 1e6,
    }
    out.update({f"{k}_ms": v / 1e6 for k, v in phases.items()})
    with open(phases_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
