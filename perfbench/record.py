"""Record the expected output digest of every input a workload can draw.

    python3 perfbench/record.py [workload ...]

Run from the repository root, on a commit whose outputs are trusted;
rewrites the named workloads (default: all) in ``expected.json``.
A change that claims to keep results unchanged must not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, load_library


def main(names) -> int:
    load_library()
    import checks
    import workloads

    expected = json.loads(checks.EXPECTED.read_text()) if checks.EXPECTED.exists() else {}
    workdir = OUT / "record"
    try:
        for name in names or list(workloads.WORKLOADS):
            table = {}
            for task in workloads.all_tasks(name, workdir):
                table[task.key] = checks.digest(task.canon(task.run()))
            expected[name] = dict(sorted(table.items()))
            print(f"{name}: {len(table)} inputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
