#!/usr/bin/env python
"""Pin the extension experiments' ``--json`` data by SHA-256 digest.

Regenerates every extension at a small fixed size, from an empty
workload cache of its own, and compares the SHA-256 of each
experiment's ``data`` (serialised with sorted keys) with the digests
committed in ``tools/extension_digests.json``. Exits nonzero on any
mismatch, missing or unexpected experiment.

Usage::

    python tools/extension_digests.py            # regenerate and check
    python tools/extension_digests.py --update   # record new digests

The run is ``python -m repro.evalx extensions --quick --tasks 5000
--json FILE`` (about 10 s on a 2-vCPU VM). Record new digests only
after a deliberate change to an extension's output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_suffix(".json")
RUN_ARGS = ["extensions", "--quick", "--tasks", "5000"]


def digests_of(json_lines: str) -> dict[str, str]:
    """Experiment id -> SHA-256 of its ``data``, from ``--json`` output."""
    out = {}
    for line in json_lines.splitlines():
        if line.strip():
            record = json.loads(line)
            text = json.dumps(record["data"], sort_keys=True)
            out[record["experiment"]] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return out


def regenerate() -> str:
    """Run the extensions from an empty cache; return their ``--json``
    lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory() as tmp:
        env["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        out = Path(tmp) / "extensions.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro.evalx", *RUN_ARGS,
             "--json", str(out)],
            check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        return out.read_text(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="write the digests instead of checking them")
    args = parser.parse_args(argv)
    current = digests_of(regenerate())
    if args.update:
        DIGESTS.write_text(
            json.dumps({"run": RUN_ARGS, "digests": current}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        print(f"recorded {len(current)} digests in {DIGESTS.name}")
        return 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    bad = sorted(
        eid for eid in recorded.keys() | current.keys()
        if recorded.get(eid) != current.get(eid)
    )
    for eid in bad:
        print(f"MISMATCH {eid}: recorded {recorded.get(eid)} "
              f"now {current.get(eid)}")
    if not bad:
        print(f"extension digests ok: {len(current)} experiments")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
