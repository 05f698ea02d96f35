"""One benchmark operation in a fresh interpreter.

Reads a JSON request ``{"src", "argv", "trace"}`` on stdin, imports
`cylsim.cli` from ``src`` (timed as set-up), runs ``cylsim.cli.main(argv)``
with its stdout and stderr captured (timed as the operation), and writes one
JSON result object to stdout.  A fresh process per operation keeps the
package's module-level caches and scipy's lazy imports from carrying over
between operations.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback


def _blas_info() -> dict:
    """OpenBLAS build string and thread count of the BLAS numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "libscipy_openblas*.so")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        try:
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": "unknown", "blas_threads": None}


ADDR_NO_RANDOMIZE = 0x0040000  # Linux personality flag


def _exec_without_aslr() -> None:
    """Re-execute this worker with address-space randomisation off for this
    process only.  Under randomisation the peak RSS of one and the same
    search_space operation ranged from 139 to 171 MB; without it, it is the
    same to the kilobyte.  Where the flag cannot be set, carry on as is."""
    personality = getattr(ctypes.CDLL(None), "personality", None)
    if personality is None:
        return
    persona = personality(0xFFFFFFFF)
    if persona == -1 or persona & ADDR_NO_RANDOMIZE:
        return
    if personality(persona | ADDR_NO_RANDOMIZE) != -1:
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _aslr_off() -> bool:
    persona = ctypes.CDLL(None).personality(0xFFFFFFFF)
    return persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)


def main() -> int:
    _exec_without_aslr()
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])

    t0 = time.perf_counter()
    import cylsim.cli
    setup_s = time.perf_counter() - t0

    src_pkg = os.path.join(os.path.realpath(req["src"]), "cylsim")
    if os.path.dirname(os.path.realpath(cylsim.cli.__file__)) != src_pkg:
        raise ImportError(f"cylsim imported from {cylsim.cli.__file__}, "
                          f"not from {src_pkg}")

    entry, tracer = cylsim.cli.main, None
    if req["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT, entry)

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            code = entry(req["argv"])
        except Exception:  # reported as a failed operation by the parent
            error = traceback.format_exc()
        op_s = time.perf_counter() - t1
        op_cpu_s = time.process_time() - c1

    json.dump({
        "code": code,
        "error": error,
        "setup_s": setup_s,
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "platform": {**_blas_info(), "aslr_off": _aslr_off()},
        "trace": tracer.dump() if tracer is not None else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
