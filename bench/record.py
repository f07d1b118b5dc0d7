"""Record the reference exit code and stdout digest of every benchmark request.

    python3 bench/record.py

Runs each request that any seed can draw once, through the current
``src/`` tree, and rewrites ``references.json``.  A request whose own
check fails, or that lets an exception escape, is not recorded: the script
stops instead.  Known-defect requests are left out; they are held to the
exit-code contract (exit 2, no output) rather than to a recording.
Record only from a tree whose output is known to be right.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    os.environ.pop("PILAT_MAX_N", None)
    cli = run.import_cli()
    requests = [r for r in workloads.all_requests() if not r.known_defect]
    workdir = run.BENCH / f"_work-{os.getpid()}"
    try:
        argvs = run.materialize(requests, workdir)
        _, _, outcomes = run.run_pass(cli, argvs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs = {}
    for req, (rc, out, escaped) in zip(requests, outcomes):
        reason = f"{escaped} escaped main()" if escaped else req.check and req.check(rc, out)
        if reason:
            print(f"{req.key}: {reason}", file=sys.stderr)
            return 1
        refs[req.key] = {"exit": rc, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(refs.items()))
    run.REFERENCES.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"recorded {len(refs)} references in {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
