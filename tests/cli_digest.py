"""Digest of every CLI output on a fixed set of generated files, for
byte-identity checks between two checkouts.

    python tests/cli_digest.py > digest.txt

The script imports the package from the ``src`` next to it, so running the
copy in each checkout and diffing the two listings compares them.  It
generates the five echelon shapes of acceptance criterion 2 and two
S^1-invariant shapes, each with seeds 0-3, then runs ``verify --samples 3
--seed 5``, ``factorize --samples 5``, ``grassmann --samples 4`` and
``sample --grid 12`` on each file.  Every line holds a command's exit code,
the sha256 of the file it wrote (``-`` when it wrote none) and the command.
It is untimed and not collected by pytest.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from unitons.cli import main  # noqa: E402

ECHELON = [(3, 2, "1,1"), (4, 3, "1,1,1"), (5, 4, "1,1,1,1"), (4, 2, "1,2"), (5, 3, "1,2,2")]
S1 = [(4, 3, "1,1,1"), (4, 3, "1,2,3")]
SEEDS = range(4)
COMMANDS = [
    ("verify", "--samples", "3", "--seed", "5"),
    ("factorize", "--samples", "5"),
    ("grassmann", "--samples", "4"),
    ("sample", "--grid", "12"),
]


def run(argv, out, label):
    """One in-process CLI call writing to out: its exit code, out's digest and the label."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--output", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return f"{code} {digest} {label}"


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for mode, shapes in (("echelon", ECHELON), ("s1", S1)):
            for n, r, steps in shapes:
                for seed in SEEDS:
                    name = f"{mode} n={n} r={r} steps={steps} seed={seed}"
                    data = tmp / f"{mode}-{n}-{r}-{steps}-{seed}.json"
                    print(run(["generate", "--mode", mode, "--n", str(n), "--r", str(r), "--rank-steps", steps,
                               "--seed", str(seed)], data, f"generate {name}"))
                    for command in COMMANDS:
                        out = data.with_suffix(f".{command[0]}.json")
                        print(run([command[0], "--input", str(data), *command[1:]], out, f"{' '.join(command)} {name}"))


if __name__ == "__main__":
    main_digest()
