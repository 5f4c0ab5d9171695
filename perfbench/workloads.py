"""The three workloads: which inputs a seed selects, how set-up builds the
input files, and the CLI commands one pass runs.

Every slot lists its inputs with the default-seed input first.  Seed 0
takes the defaults; any other seed draws one input per slot from
``random.Random(seed)``.  The options of a slot are of comparable size, so
a pass takes about the same time whichever input a seed picks.
"""

from __future__ import annotations

import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# The CLI entry point.  ``python -m diffcover`` fails ("No module named
# diffcover.__main__"), so the benchmark imports the console-script
# function instead.
LAUNCH = "from diffcover.cli import run; run()"

# Slot -> options, default first.  Within a slot the options take about
# the same time on the machine the benchmark was tuned on (fastest of
# several runs, 2-core x86 VM): the cost of an input depends on more than
# its order, so orders and repeats are chosen to match.
SLOTS: dict[str, dict[str, list]] = {
    # Order of the DCA of each family that Latin squares are derived from.
    # A pass has one command per family, since at equal order the six-mu
    # squares take 10 % less time than the others.  One command takes
    # about 0.9 s, so a run holds about eight of each and their fastest is
    # steady (see README.md).  The four-m and odd-f families have no other
    # order within 5 % of these.
    "latin": {
        "six-mu": [610, 598, 622],
        "four-m": [616],
        "odd-f": [614],
    },
    # Orders of the third-column searches (first solution) and n,h of the
    # HDM searches in one pass: 3.1 s and 1.25 s.
    "search": {
        "third": [(22,), (20, 18, 18)],
        "hdm": [("22,2",), ("18,2", "18,2", "14,2")],
    },
    # One order per family, a prime p for HDM(4, 10p; 2p) = HDM(4, 10; 2)
    # x DM(p, 4), and a prime q for DM(q, 4).
    "construct-verify": {
        "odd-f": [30506, 31502],
        "four-m": [30008, 29992, 30040, 29960],
        "six-mu": [29998, 29986, 30010, 30022],
        "hdm": [3001, 2999, 3011, 3019],
        "dm": [30011, 29989, 30013, 29983],
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``kind`` says what unit of work it counts:
    "latin" (``cells`` Latin cells), "third" or "hdm" (DFS nodes, read
    from the final stderr status line) or "array" (one array)."""

    argv: tuple[str, ...]
    kind: str
    outputs: tuple[str, ...] = ()
    cells: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def select(workload: str, seed: int) -> dict[str, list]:
    """The inputs of one run: one option per slot."""
    rng = random.Random(seed)
    return {
        slot: [options[0] if seed == 0 else rng.choice(options)]
        for slot, options in SLOTS[workload].items()
    }


def run_cli(argv: list[str], cwd: Path, env: dict[str, str]) -> None:
    subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def build(workload: str, inputs: dict[str, list], work: Path,
          env: dict[str, str]) -> tuple[list[Command], list[str]]:
    """Write the input files into ``work`` and return the command list of
    one pass with the names of the files set-up wrote."""
    if workload == "latin":
        files, commands = [], []
        for method, orders in inputs.items():
            for n in orders:
                name = f"dca{n}.txt"
                run_cli(["construct", "--order", str(n), "--method", method, "--out", name], work, env)
                files.append(name)
                commands.append(Command(("latin", name, "--classify", "--williams"), "latin",
                                        cells=3 * n * n))
        return commands, files

    if workload == "search":
        commands = [Command(("search", "--order", str(n), "--limit", "1"), "third")
                    for orders in inputs["third"] for n in orders]
        commands += [Command(("search", "--hdm", hdm), "hdm") for hdms in inputs["hdm"] for hdm in hdms]
        return commands, []

    if workload == "construct-verify":
        from diffcover import dm_prime, hdm_product, search_hdm, write_array

        commands, files = [], []
        for method in ("odd-f", "four-m", "six-mu"):
            for n in inputs[method]:
                for fmt in ("text", "json"):
                    name = f"c{n}.{'txt' if fmt == 'text' else 'json'}"
                    commands.append(Command(("construct", "--order", str(n), "--method", method,
                                             "--format", fmt, "--out", name), "array", (name,)))
                    commands.append(Command(("verify", name, "--strict"), "array"))
        hdm10 = search_hdm(10, 2)
        for p in inputs["hdm"]:
            name = f"hdm{10 * p}.txt"
            (work / name).write_text(write_array(hdm_product(hdm10, dm_prime(p, 4))))
            files.append(name)
            commands.append(Command(("verify", name), "array"))
        for q in inputs["dm"]:
            name = f"dm{q}.txt"
            (work / name).write_text(write_array(dm_prime(q, 4)))
            files.append(name)
            commands.append(Command(("verify", name), "array"))
        return commands, files

    raise ValueError(f"unknown workload {workload!r}")
