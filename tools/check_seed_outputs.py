#!/usr/bin/env python3
"""Seed-output check: the sim-clock benches print exactly their goldens.

  check_seed_outputs.py GOLDEN_DIR BINARY...

Runs each BINARY with no arguments and compares its stdout, byte for byte,
with GOLDEN_DIR/<binary name>.txt. The benches run on the virtual clock, so
their output is a deterministic function of the code: any difference is a
moved sim number (a Table 3.1/3.2 row, E1, Eq. 1, ...), never noise. Exit 0
when every binary exits 0 and matches; 1 otherwise, with a unified diff per
mismatch. After an intended change to a sim number, regenerate the golden
from the binary and say in the change why the number moved.
"""

import difflib
import os
import subprocess
import sys


def check(golden_dir, binary):
    name = os.path.basename(binary)
    golden_path = os.path.join(golden_dir, name + ".txt")
    try:
        with open(golden_path, encoding="utf-8") as f:
            golden = f.read()
    except OSError as e:
        return [f"{name}: no golden: {e}"]
    proc = subprocess.run([binary], capture_output=True, text=True, encoding="utf-8")
    errors = []
    if proc.returncode != 0:
        errors.append(f"{name}: exit status {proc.returncode}\n{proc.stderr}")
    if proc.stdout != golden:
        diff = difflib.unified_diff(golden.splitlines(keepends=True),
                                    proc.stdout.splitlines(keepends=True),
                                    fromfile=golden_path, tofile=f"{name} stdout")
        errors.append(f"{name}: stdout differs from its golden\n" + "".join(diff))
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    golden_dir, binaries = argv[0], argv[1:]
    errors = []
    for binary in binaries:
        errors.extend(check(golden_dir, binary))
    for err in errors:
        print(err)
    print(f"check_seed_outputs: {len(binaries)} binaries, "
          f"{'all match' if not errors else f'{len(errors)} failure(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
