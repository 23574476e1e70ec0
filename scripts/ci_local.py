"""Run one job of .github/workflows/tier1.yml on this machine, step by step.

Usage: python scripts/ci_local.py tests [--python-version 3.10]

Each ``run:`` step runs under ``bash -eo pipefail`` from the repository
root, with RUNNER_TEMP set to a fresh temporary directory and an ``odup``
command on PATH that runs ``odup.cli:main`` from this checkout's sources.
Steps that ``pip install`` are skipped, so nothing is downloaded: the job
runs against the packages already installed. A step guarded by
``matrix.python-version == '...'`` runs when that version is the one
given (3.12 by default). After a failing step the rest are skipped, as
in CI. Prints one line per step with its seconds; exits 1 if a step
failed, showing that step's output.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
_MATRIX_IF = re.compile(r"matrix\.python-version\s*==\s*'([^']*)'")


def _write_shim(bin_dir: str) -> None:
    src = os.path.join(ROOT, "src")
    shim = os.path.join(bin_dir, "odup")
    with open(shim, "w", encoding="utf-8") as fh:
        fh.write("#!/bin/sh\n"
                 f'PYTHONPATH={shlex.quote(src)}${{PYTHONPATH:+:$PYTHONPATH}} exec '
                 f"{shlex.quote(sys.executable)} -c 'import sys; from odup.cli import main; sys.exit(main())' "
                 '"$@"\n')
    os.chmod(shim, 0o755)


def _skip_reason(step: dict, python_version: str) -> str | None:
    """Why the step does not run here, or None when it runs."""
    if "run" not in step:
        return "not a run step"
    if step["run"].lstrip().startswith("pip install"):
        return "installs packages"
    cond = step.get("if")
    if cond is not None:
        match = _MATRIX_IF.fullmatch(cond.strip())
        if match is None:
            raise SystemExit(f"cannot evaluate the step condition {cond!r}")
        if match.group(1) != python_version:
            return f"runs on Python {match.group(1)} only"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", help="a job of the workflow, e.g. tests")
    parser.add_argument("--python-version", default="3.12",
                        help="the matrix Python version the step conditions compare with")
    args = parser.parse_args(argv)
    with open(WORKFLOW, encoding="utf-8") as fh:
        jobs = yaml.safe_load(fh)["jobs"]
    if args.job not in jobs:
        parser.error(f"no job {args.job!r}; the workflow has {', '.join(jobs)}")

    failed = False
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        bin_dir, runner_temp = os.path.join(tmp, "bin"), os.path.join(tmp, "runner")
        os.makedirs(bin_dir)
        os.makedirs(runner_temp)
        _write_shim(bin_dir)
        env = dict(os.environ, RUNNER_TEMP=runner_temp, PATH=bin_dir + os.pathsep + os.environ["PATH"])
        for step in jobs[args.job]["steps"]:
            name = step.get("name") or step.get("uses") or step.get("run", "").strip()
            reason = "an earlier step failed" if failed else _skip_reason(step, args.python_version)
            if reason:
                print(f"{'skip':<8} {'':>7} {name} ({reason})", flush=True)
                continue
            start = time.perf_counter()
            proc = subprocess.run(["bash", "-eo", "pipefail", "-c", step["run"]], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            secs = time.perf_counter() - start
            status = "ok" if proc.returncode == 0 else f"FAIL({proc.returncode})"
            print(f"{status:<8} {secs:6.1f}s {name}", flush=True)
            if proc.returncode:
                failed = True
                print(proc.stdout, end="", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
