"""Digest of every CLI output on a fixed set of generated files, for
byte-identity checks between two checkouts, and a field-by-field comparison
for when the bytes differ.

    python tests/cli_digest.py [--src DIR] > digest.txt
    python tests/cli_digest.py [--src DIR] --keep DIR > digest.txt
    python tests/cli_digest.py --compare DIR_A DIR_B

The script imports the package from the ``src`` next to it, or from the
directory given with ``--src``, so one copy of the script lists two
checkouts, and diffing the two listings compares them.  It generates the
five echelon shapes of acceptance criterion 2, two S^1-invariant shapes and
random r = 0 data with n = 3, each with seeds 0-3, then runs ``verify
--samples 3 --seed 5``, ``factorize --samples 5``, ``grassmann --samples 4``
and ``sample --grid 12`` on each file.  Every line holds a command's exit
code, the sha256 of the file it wrote (``-`` when it wrote none) and the
command.

``--keep DIR`` leaves every output file, and the listing as ``digest.txt``,
in DIR.  ``--compare`` reads two such directories and checks, per command,
that the exit codes and every non-float field (strings, integers, booleans,
keys, list lengths, and the float sample points ``z``) are identical; it
prints each command's largest float difference per field path (list indices
dropped, a list entry with a ``name`` labelled by it), then the largest per
command and path over all files, and exits 1 on any non-float mismatch.
It is untimed and not collected by pytest.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import orjson

ECHELON = [(3, 2, "1,1"), (4, 3, "1,1,1"), (5, 4, "1,1,1,1"), (4, 2, "1,2"), (5, 3, "1,2,2")]
S1 = [(4, 3, "1,1,1"), (4, 3, "1,2,3")]
RANDOM = [(3, 0, None)]  # random mode takes no rank steps
SEEDS = range(4)
COMMANDS = [
    ("verify", "--samples", "3", "--seed", "5"),
    ("factorize", "--samples", "5"),
    ("grassmann", "--samples", "4"),
    ("sample", "--grid", "12"),
]
EXACT_FLOATS = {"z"}  # float fields that must be identical: the drawn sample points


def commands():
    """(label, argv without --output, output file name) of every call, in order."""
    for mode, shapes in (("echelon", ECHELON), ("s1", S1), ("random", RANDOM)):
        for n, r, steps in shapes:
            for seed in SEEDS:
                name = f"{mode} n={n} r={r}{f' steps={steps}' if steps else ''} seed={seed}"
                data = f"{mode}-{n}-{r}-{steps}-{seed}"
                yield (f"generate {name}", ["generate", "--mode", mode, "--n", str(n), "--r", str(r),
                                            *(["--rank-steps", steps] if steps else []), "--seed", str(seed)],
                       f"{data}.json")
                for command in COMMANDS:
                    yield (f"{' '.join(command)} {name}", [command[0], "--input", f"{data}.json", *command[1:]],
                           f"{data}.{command[0]}.json")


def run(argv, out, label):
    """One in-process CLI call writing to out: its exit code, out's digest and the label."""
    from unitons.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--output", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return f"{code} {digest} {label}"


def main_digest(folder: Path) -> None:
    lines = []
    for label, argv, out in commands():
        argv = [str(folder / a) if a.endswith(".json") else a for a in argv]
        lines.append(run(argv, folder / out, label))
        print(lines[-1])
    (folder / "digest.txt").write_text("\n".join(lines) + "\n")


def differences(a, b, path, floats, mismatches):
    """Walk two decoded JSON values: record the largest float difference per
    path in floats, and every other difference in mismatches."""
    if isinstance(a, float) and isinstance(b, float) and path.rpartition(".")[2].split("[")[0] not in EXACT_FLOATS:
        floats[path] = max(floats.get(path, 0.0), abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            differences(a[key], b[key], f"{path}.{key}", floats, mismatches)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            label = x.get("name") if isinstance(x, dict) and isinstance(x.get("name"), str) else ""
            differences(x, y, f"{path}[{label}]", floats, mismatches)
    elif type(a) is not type(b) or a != b:
        mismatches.append(f"{path}: {a!r:.60} != {b!r:.60}")


def compare(dir_a: Path, dir_b: Path) -> int:
    codes = [{line.split(" ", 2)[2]: line.split(" ", 1)[0] for line in (d / "digest.txt").read_text().splitlines()}
             for d in (dir_a, dir_b)]
    worst, bad = {}, 0
    for label, _, out in commands():
        floats, mismatches = {}, []
        if codes[0][label] != codes[1][label]:
            mismatches.append(f"exit code: {codes[0][label]} != {codes[1][label]}")
        files = [d / out for d in (dir_a, dir_b)]
        if files[0].exists() != files[1].exists():
            mismatches.append("output written on one side only")
        elif files[0].exists():
            differences(*(orjson.loads(f.read_bytes()) for f in files), "", floats, mismatches)
        moved = {p: d for p, d in floats.items() if d > 0.0}
        print(f"{label}: " + (" ".join(f"{p}={d:.2e}" for p, d in sorted(moved.items())) or "same floats"))
        for m in mismatches:
            print(f"  MISMATCH {m}")
        bad += bool(mismatches)
        for p, d in floats.items():
            key = (label.split(" ", 1)[0], p)
            worst[key] = max(worst.get(key, 0.0), d)
    print("largest float difference per command and field path:")
    for (command, p), d in sorted(worst.items()):
        print(f"  {command} {p} {d:.2e}")
    print(f"{bad} of {len(codes[0])} commands differ in a non-float field or exit code")
    return int(bad > 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    src = Path(__file__).resolve().parents[1] / "src"
    if args[:1] == ["--src"] and len(args) >= 2:
        src, args = Path(args[1]), args[2:]
    sys.path.insert(0, str(src))
    if args[:1] == ["--compare"] and len(args) == 3:
        sys.exit(compare(Path(args[1]), Path(args[2])))
    if args[:1] == ["--keep"] and len(args) == 2:
        Path(args[1]).mkdir(parents=True, exist_ok=True)
        main_digest(Path(args[1]))
    elif not args:
        with tempfile.TemporaryDirectory() as tmp:
            main_digest(Path(tmp))
    else:
        sys.exit(__doc__)
