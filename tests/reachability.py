"""List the definitions in ``src/repro`` that no entry point reaches.

A module-level function or a class method counts as *reached* when
either holds:

* its name appears, as a whole word, in a file under ``benchmarks/``,
  ``examples/`` or ``.github/``;
* it runs while this script drives the CI smokes (``repro info``,
  ``run``, ``evaluate``, ``build``, ``simulate``, ``serve``,
  ``predict``, ``metrics``, ``export``) and the four workloads of
  ``benchmarks/e2e/run.py``.

Calls from ``tests/`` do not count.  Dunder methods are left out: the
interpreter calls them through protocols, not by name.

Run time is recorded with ``sys.setprofile``/``threading.setprofile``,
installed in every Python process the commands start (spawned workload
children and forked worker processes too) by a generated
``sitecustomize`` module placed first on ``PYTHONPATH``.  Each process
appends the first call of every code object under ``src/repro`` to one
log file.

Usage, from the repository root (stdlib only, a few minutes on two
cores)::

    python tests/reachability.py                 # the smokes + e2e
    python tests/reachability.py --skip-e2e      # the CLI smokes only

It prints ``path:line qualname`` per unreached definition.  pytest does
not collect this file, and CI does not run it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import re
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
NAME_SOURCES = ("benchmarks", "examples", ".github")
E2E_WORKLOADS = ("vgg16-dense", "vgg16-event", "serve-http",
                 "hw-fixed-point")

SITECUSTOMIZE = '''\
import os, sys, threading
_SRC = {src!r}
_LOG = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = {{}}  # id -> code: holding the code keeps its id from reuse
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_SRC):
                os.write(_LOG, ("%s\\t%d\\n" % (code.co_filename,
                                                code.co_firstlineno)).encode())
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def definitions():
    """``{(path, first line): qualname}`` for every function and method."""
    found = {}

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                # a decorated function's code starts at its first decorator
                line = min([node.lineno] + [d.lineno
                                            for d in node.decorator_list])
                found[(str(path), line)] = prefix + node.name

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, path, "")
    return found


def referenced_names():
    """Every identifier-shaped word in the name-source directories."""
    words = set()
    for top in NAME_SOURCES:
        for path in (ROOT / top).rglob("*"):
            if path.is_file():
                try:
                    text = path.read_text()
                except (UnicodeDecodeError, OSError):
                    continue
                words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return words


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextlib.contextmanager
def serving(env, registry, *extra):
    """``repro serve`` in the background until its /healthz answers."""
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--registry", registry,
         "--port", str(port), *extra], env=env, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    url = f"http://127.0.0.1:{port}"
    try:
        for _ in range(100):
            try:
                urllib.request.urlopen(url + "/healthz", timeout=1).close()
                break
            except OSError:
                time.sleep(0.2)
        yield url
    finally:
        proc.terminate()
        proc.wait(timeout=60)


def drive(env, tmp: Path, skip_e2e: bool, seconds: float) -> None:
    """Run every entry point the scan counts, reporting failures."""
    def repro(*args):
        run([sys.executable, "-m", "repro", *map(str, args)])

    def run(argv):
        print("  $", " ".join(argv[1:]), flush=True)
        done = subprocess.run(argv, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode:
            print(f"    exit {done.returncode}: "
                  f"{done.stderr.strip().splitlines()[-1:]}", flush=True)

    config = "examples/configs/micro-pipeline.json"
    cache, registry = tmp / "stage-cache", tmp / "registry"
    repro("info")
    for _ in range(2):
        repro("run", config, "--cache-dir", cache, "--report",
              tmp / "report.json")
    repro("run", config, "--backend", "event", "--report",
          tmp / "event.json")
    repro("run", "--preset", "paper-artefacts", "--report",
          tmp / "paper.json")
    sweep = ("evaluate", "--schemes", "ttfs-closed-form,rate", "--windows",
             "6,12", "--max-batches", "8", "--epochs", "1", "--limit", "16")
    repro(*sweep, "--workers", "2", "--cache-dir", tmp / "sweep-cache",
          "--report", tmp / "sweep.json")
    repro(*sweep, "--workers", "1", "--report", tmp / "sweep-1.json")
    repro(*sweep, "--workers", "2", "--cache-dir", tmp / "sweep-cache",
          "--report", tmp / "sweep-cached.json")
    repro("build", "--preset", "micro-smoke", "--registry", registry,
          "--name", "micro", "--cache-dir", cache)
    bundle = registry / "micro" / "v1"
    repro("simulate", "--artifact", bundle, "--limit", "16",
          "--predictions", tmp / "sim.json")
    for extra in ((), ("--workers", "2")):
        with serving(env, str(registry), *extra) as url:
            repro("predict", "--url", url, "--model", "micro:latest",
                  "--limit", "16", "--output", tmp / "served.json")
            repro("metrics", "--url", url)
    for target in ("pynn-netlist", "tile-config"):
        repro("export", "--artifact", bundle, "--target", target, "--out",
              tmp / target, "--limit", "16", "--predictions",
              tmp / f"{target}.json")
    if not skip_e2e:
        for workload in E2E_WORKLOADS:
            run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                 workload, "--seed", "0", "--seconds", str(seconds)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-e2e", action="store_true",
                        help="drive the CLI smokes only")
    # under the profile hook a 1 s vgg16-dense run serves only its first
    # reference chunk, fails its hard checks and skips the second call
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per e2e workload run")
    args = parser.parse_args(argv)
    defs = definitions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        tmp = Path(tmp)
        log = tmp / "calls.log"
        hook_dir = tmp / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            src=str(SRC), log=str(log)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(hook_dir), str(ROOT / "src")]))
        print("driving the entry points:", flush=True)
        drive(env, tmp, args.skip_e2e, args.seconds)
        called = set()
        if log.exists():
            for line in log.read_text().splitlines():
                path, _, lineno = line.rpartition("\t")
                called.add((path, int(lineno)))
    names = referenced_names()
    unreached = sorted(
        (key, qualname) for key, qualname in defs.items()
        if key not in called and qualname.rsplit(".", 1)[-1] not in names)
    print(f"\n{len(unreached)} of {len(defs)} definitions unreached:")
    for (path, line), qualname in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{line} {qualname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
