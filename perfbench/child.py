"""One measured process: import svddf, load the inputs, optionally run the CLI.

Run as ``python3 child.py <job.json>``; the job names the program's source
directory, the input files, the CLI arguments, whether to trace, and where
to write the result JSON.  Exit code 3 means the program could not be
imported from that source directory, which the caller treats as fatal.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_NO_PROGRAM = 3


def main(job_path: str) -> int:
    t0 = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    try:
        import svddf
        from svddf import cli
    except ImportError as err:
        print(f"cannot import svddf from {src}: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not Path(svddf.__file__).resolve().is_relative_to(src):
        print(f"svddf imported from {svddf.__file__}, not from {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for path in job["inputs"]:
        svddf.read_pgm(path)
    result = {
        "setup_s": time.perf_counter() - t0,
        "using_numba": bool(getattr(svddf, "USING_NUMBA", False)),
    }
    if job["argv"] is not None:
        result.update(run_cli(cli, job))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def run_cli(cli, job) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(job["argv"])
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc = "exception"
            traceback.print_exc()
        wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["spans"])
    return {"rc": rc, "wall_s": wall_s, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
