"""Run one ``slim`` command in this process, the way the installed script does.

    python3 bench/launch.py [--trace-out FILE] SLIM-ARGS...

With ``--trace-out`` the public functions of the slim modules are wrapped
first (see tracer.py) and the spans are written to FILE as JSON when the
command ends. Without it nothing is wrapped, so traced and untraced runs
differ only by the wrappers. ``slim`` itself must be importable (run.py
puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import itertools
import json
import sys


def _tensor_key(argv: list[str]) -> str | None:
    if "--tensor" in argv[:-1]:
        return argv[argv.index("--tensor") + 1]
    return argv[0] if argv else None


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace-out"]:
        from slim.cli import main as slim_main

        return slim_main(argv)

    trace_out, argv = argv[1], argv[2:]
    import slim.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.key = _tensor_key(argv)
    ordinal = itertools.count()

    def next_tensor():  # compress_layer runs once per tensor, in container order
        tracer.key = f"#{next(ordinal)}"

    tracer.on_compress_layer = next_tensor
    code = None
    try:
        code = slim.cli.main(argv)
        return code
    finally:
        record = tracer.dump()
        record.update(argv=argv, exit_code=code)
        with open(trace_out, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
