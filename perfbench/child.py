"""Entry point of the benchmark's child interpreters.

    python3 child.py setup DOC GRID
        import the package, load DOC, build its structure view (extraction
        for a hypersurface, with the on-model check at GRID) and make the
        first ``eval_at`` and ``connection_data_at`` calls, which compile
        the evaluators.  This is the set-up a user pays once per input.

    python3 child.py trace TRACE_OUT OP_ID CLI_ARG...
        run ``immersion_forge.cli.main(CLI_ARG...)`` under the per-layer
        tracer and write the trace to TRACE_OUT as JSON; exits with the
        command's exit code.

The package is found through PYTHONPATH, which the parent points at the
checkout's ``src`` directory.
"""

import json
import sys
import time


def setup(doc, grid):
    from immersion_forge import cli

    spec = cli.as_structure(cli.load_input(doc), int(grid))
    base = spec.chart.base_point
    spec.eval_at(base)
    spec.connection_data_at(base)
    return 0


def trace(trace_out, op_id, *argv):
    start = time.perf_counter()
    from immersion_forge import cli
    import_s = time.perf_counter() - start

    import tracer

    tr = tracer.Tracer(int(op_id))
    tr.install()
    try:
        code = cli.main(list(argv))
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tr.to_dict()}, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "trace": trace}[mode](*rest))
