"""Start ``repro serve`` in this process, optionally under the span tracer.

    python3 perfbench/serve_launcher.py [--trace-out SPANS.jsonl.gz] serve ARGS...

Everything after the optional ``--trace-out`` goes to the ``repro`` CLI
unchanged. With ``--trace-out`` the server-side probes of
:func:`probes.server_probes` are installed for the server's whole life
and the spans are written to that file when it stops.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    import probes
    import tracing

    tracer = tracing.SpanTracer()
    try:
        with tracing.instrument(tracer, probes.server_probes()):
            return repro_main(argv)
    finally:
        tracing.dump_records(tracer.records, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
