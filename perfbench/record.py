"""Write reference.json: the outputs that run.py checks every unit against.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference (the references in the
repository were recorded at commit 3eee0fd), never to make a failing check
pass.  It runs one untraced set-up and unit of each workload at the default
seed.
"""

from __future__ import annotations

import json
import tempfile

from run import HERE, OUT_DIR, load_program


def main() -> None:
    workloads = load_program()
    from tracing import NoTrace

    notrace = NoTrace()
    reference = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="record-") as tmp:
            wl = cls(workloads.DEFAULT_SEED, tmp, None)
            state = wl.setup(notrace)
            reference[name] = {
                "seed": workloads.DEFAULT_SEED,
                "setup": wl.observe_setup(state),
                "unit": wl.reference_unit(state),
            }
        print(f"recorded {name}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
