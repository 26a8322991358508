"""Run one graev CLI command with the benchmark's wrappers installed.

    python3 bench/child.py OUT.json <graev arguments>

The traced ``cli-short`` run starts this in place of ``python -m graev``;
stdout, stderr and the exit code are graev's, and the spans and counts of
the call go to OUT.json.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    modules = {layer: importlib.import_module(f"graev.{layer}") for layer in spans.LAYERS}
    tracer = spans.Tracer()
    spans.instrument(tracer, modules)
    code = tracer.run_op(0, lambda: modules["cli"].main(argv))
    sys.stdout.flush()
    spans.write(out_path, tracer.dump())
    return code


if __name__ == "__main__":
    sys.exit(main())
