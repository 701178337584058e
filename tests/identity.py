"""Check that two checkouts of melscribe give the same outputs.

    python tests/identity.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts, each holding ``src/``;
PARENT must also hold ``perfbench/``, which is only read.  The inputs are
rendered once, with PARENT's package and perfbench's builders, for seeds
7 and 3231 (two songs each, as in perfbench's cli workload).  Then, in a
temporary directory, each side runs the README walkthrough through its
own ``python -m melscribe.cli``: ``dataset convert`` and ``split``,
``align refine``, ``features mel`` under ``--jobs 1`` and again under
``--jobs 2``, ``features resample``, ``transcribe`` (from the
tick-indexed and from the fixed-rate SSFT, with ``perfbench/desk.ckpt``),
``evaluate`` (plain and octave-invariant) and ``leadsheet``.  Commands
run in each side's own directory with relative paths, so their output
does not name the side.

Compared are the sha256 of every written file, each command's exit
code, stdout and stderr, and the sha256 of ``logmel``'s frames on a grid
of seeded noise: rates of 8 to 96 kHz (44.101 kHz included), float32 and
float64, 0.01 to 17.3 s, and at 44101 Hz every length of 1 to 39
samples and every 613th length up to 70000.  A call that raises is
compared by its exception's type and message.

One line is printed per difference, then a count; the exit code is 1 if
anything differs.  Nothing is written under either checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 3231)
SONGS = 2
GRID_RATES = (8000, 11025, 16000, 22050, 32000, 44100, 44101, 48000, 88200, 96000)
GRID_SECONDS = (0.01, 0.1, 1.0, 4.1, 17.3)
ODD_RATE = 44101
ODD_LENGTHS = (*range(1, 40), *range(613, 70001, 613))


def logmel_grid() -> dict[str, str]:
    """sha256 of ``logmel``'s output per noise case, or the error it raised."""
    import numpy as np

    from melscribe.features import logmel

    cases = [(rate, round(s * rate)) for rate in GRID_RATES for s in GRID_SECONDS]
    cases += [(ODD_RATE, n) for n in ODD_LENGTHS]
    hashes = {}
    for rate, n in cases:
        noise = 0.3 * np.random.default_rng([rate, n]).standard_normal(n)
        for dtype in (np.float32, np.float64):
            try:
                feats = logmel(noise.astype(dtype), rate)
            except Exception as exc:  # compared, not raised
                result = f"{type(exc).__name__}: {exc}"
            else:
                digest = hashlib.sha256(feats.frames.tobytes())
                digest.update(repr((feats.frames.shape, feats.rate_hz, feats.t0_s)).encode())
                result = digest.hexdigest()
            hashes[f"logmel {rate} Hz, {n} samples, {dtype.__name__}"] = result
    return hashes


def render_inputs(parent: Path, root: Path) -> None:
    """Songs, annotations, beat grids, references and the checkpoint per seed."""
    sys.path[:0] = [str(parent / "src"), str(parent / "perfbench")]
    import inputs

    for seed in SEEDS:
        d = root / f"seed{seed}"
        for sub in ("audio", "raw", "grids", "refs"):
            (d / sub).mkdir(parents=True)
        inputs.render_songs(seed, SONGS, d / "audio")
        for i, song in enumerate(inputs.load_songs(d / "audio")):
            sid = song["id"]
            end_s = float(song["beat_to_time_s"][-1])
            docs = {
                "raw": inputs.functional_doc(song, f"artist{i}"),
                "grids": inputs.beat_grid(song),
                "refs": inputs.transcript_entries(inputs.reference_notes(song), end_s),
            }
            for sub, doc in docs.items():
                (d / sub / f"{sid}.json").write_text(json.dumps(doc), encoding="utf-8")
        shutil.copyfile(parent / "perfbench" / "desk.ckpt", d / "desk.ckpt")


def walkthrough(seed: int, songs: list[dict]) -> list[list[str]]:
    """The README walkthrough's commands, with paths relative to the work dir;
    ``in`` is the seed's input directory."""
    wavs = [f"in/audio/{s['id']}.wav" for s in songs]
    plan = [
        ["dataset", "convert", "in/raw", "--out", "data"],
        ["dataset", "split", "--dir", "data", "--artists", "data/artists.json",
         "--seed", str(seed)],
    ]
    for s in songs:
        plan.append(["align", "refine", "--grid", f"in/grids/{s['id']}.json",
                     "--start", "0.5", "--beats", str(len(s["beat_to_time_s"]) - 1),
                     "--out", f"data/{s['id']}.alignment.json"])
    for jobs in ("1", "2"):
        plan.append(["features", "mel", *wavs, "--out-dir", f"feats{jobs}", "--jobs", jobs])
    for s in songs:
        sid = s["id"]
        align = f"data/{sid}.alignment.json"
        plan += [
            ["features", "resample", "--features", f"feats1/{sid}.ssft",
             "--alignment", align, "--out", f"data/{sid}.features.ssft"],
            ["transcribe", "--checkpoint", "in/desk.ckpt", "--features",
             f"data/{sid}.features.ssft", "--alignment", align, "--out", f"est/{sid}.json"],
            ["transcribe", "--checkpoint", "in/desk.ckpt", "--features",
             f"feats2/{sid}.ssft", "--alignment", align, "--out", f"est/{sid}.fixed.json"],
            ["evaluate", "--estimate", f"est/{sid}.json", "--reference", f"in/refs/{sid}.json"],
            ["evaluate", "--estimate", f"est/{sid}.json", "--reference", f"in/refs/{sid}.json",
             "--octave-invariant"],
            ["leadsheet", "--transcript", f"est/{sid}.json", "--alignment", align,
             "--lilypond", f"out/{sid}.ly", "--midi", f"out/{sid}.mid"],
        ]
    return plan


def run_side(checkout: Path, inputs_root: Path, work: Path) -> dict[str, str]:
    """Every output of one side, keyed by what it is."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    seen: dict[str, str] = {}
    for seed in SEEDS:
        d = work / f"seed{seed}"
        (d / "est").mkdir(parents=True)
        (d / "out").mkdir()
        (d / "in").symlink_to(inputs_root / f"seed{seed}", target_is_directory=True)
        with open(inputs_root / f"seed{seed}" / "audio" / "songs.json", encoding="utf-8") as fh:
            songs = json.load(fh)
        for i, argv in enumerate(walkthrough(seed, songs)):
            proc = subprocess.run([sys.executable, "-m", "melscribe.cli", *argv], cwd=d,
                                  env=env, capture_output=True, text=True)
            key = f"seed{seed} #{i:02d} {' '.join(argv[:2])}"
            seen[f"{key} exit code"] = str(proc.returncode)
            seen[f"{key} stdout"] = proc.stdout
            seen[f"{key} stderr"] = proc.stderr
        for path in sorted(d.rglob("*")):
            if path.is_file() and not path.is_relative_to(d / "in"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                seen[f"file seed{seed}/{path.relative_to(d)}"] = digest
    proc = subprocess.run([sys.executable, __file__, "--logmel-grid"], env=env,
                          capture_output=True, text=True, check=True)
    seen.update(json.loads(proc.stdout))
    return seen


def main(argv: list[str]) -> int:
    if argv == ["--logmel-grid"]:  # the child that hashes one side's logmel
        print(json.dumps(logmel_grid()))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    parent, change = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory(prefix="melscribe-identity-") as tmp:
        root = Path(tmp)
        render_inputs(parent, root / "inputs")
        sides = [run_side(c, root / "inputs", root / name)
                 for c, name in ((parent, "parent"), (change, "change"))]
    diffs = 0
    for key in sorted(sides[0].keys() | sides[1].keys()):
        a, b = (side.get(key, "<missing>") for side in sides)
        if a != b:
            diffs += 1
            print(f"differs: {key}: {a.strip()[:80]!r} -> {b.strip()[:80]!r}")
    print(f"{diffs} differences in {len(sides[0] | sides[1])} outputs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
