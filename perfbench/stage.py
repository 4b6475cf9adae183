"""Run one CLI stage in this fresh interpreter and record how long it took.

Usage: python3 stage.py REQUEST.json RESULT.json

REQUEST holds ``argv`` (the CLI arguments), ``stage`` (the stage id) and
``trace`` (whether to install the tracer). RESULT receives ``import_s``
(time to import ``reprojkit.cli``), ``body_s`` (the command itself, timed
in-process after the import), ``exit_code`` and, when traced, the spans
and counts. The CLI's own output goes to this process's stdout/stderr.
"""

import json
import sys
import time


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as f:
        request = json.load(f)
    t0 = time.perf_counter()
    import reprojkit.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer(request["stage"])
        tracer.install()

    def run() -> int:
        try:
            cli.main(request["argv"], standalone_mode=False)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        return 0

    t1 = time.perf_counter()
    if tracer is None:
        code = run()
    else:
        code = tracer.span(f"cli.{request['stage']}", run)
        tracer.uninstall()
    body_s = time.perf_counter() - t1

    result = {"import_s": import_s, "body_s": body_s, "exit_code": code}
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
