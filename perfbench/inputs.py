"""Seeded inputs for the pipeline benchmark.

Every generator takes the benchmark seed and nothing else that varies,
so one seed always gives the same songs, training set and score corpus.
Sizes are fixed per slot up to a small seeded jitter (see ``_binned``),
so that the amount of work in a round barely moves from seed to seed
while the content does.

Run as a script, this module renders the songs of one workload into a
directory (see ``render_songs``); the benchmark does that in a child
process so that rendering 44.1 kHz audio does not set the peak memory
of the process it measures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

SONG_MIN_S = 90.0
SONG_MAX_S = 240.0
BPM_MIN = 60.0
BPM_MAX = 180.0
LEAD_IN_S = 0.5
#: The song of this duration rank (0 = shortest) is rendered at 16 kHz,
#: every other one at 44.1 kHz.
LOW_RATE_RANK = 1
RATES = (44100, 16000)
#: Tempo bin of each song, by song count; songs are ordered by duration.
TEMPO_SLOTS = {2: (1, 0), 4: (2, 0, 3, 1)}

TRAIN_SEGMENTS = 200
TRAIN_VALID = 20
TRAIN_TEST = 20
TRAIN_BEATS = 16

PAIR_COUNT = 24
PAIR_MIN_NOTES = 100
PAIR_MAX_NOTES = 2000
#: Share of dense passages in pairs of density class 0, 1 and 2.
DENSE_SHARE = (0.1, 0.4, 0.8)
PASSAGE_NOTES = 30


def _interp_times(beat_to_time_s: np.ndarray, positions) -> np.ndarray:
    beats = np.arange(len(beat_to_time_s), dtype=np.float64)
    return np.interp(np.asarray(positions, dtype=np.float64), beats, beat_to_time_s)


@dataclass(frozen=True)
class SongSpec:
    seg_id: str
    duration_s: float
    bpm: float
    rate: int


def _binned(rng: np.random.Generator, lo: float, hi: float, slots) -> np.ndarray:
    """One value per slot: the middle fifth of equal-width bin ``slots[i]``.

    Slots fix how much work each song or pair carries, so that the work in
    a round stays nearly the same from seed to seed; the seed moves each
    value within its bin and decides all content.
    """
    slots = np.asarray(slots, dtype=np.float64)
    return lo + (hi - lo) * (slots + 0.4 + 0.2 * rng.random(len(slots))) / len(slots)


def song_specs(seed: int, count: int) -> list[SongSpec]:
    """Song i takes duration bin i and tempo bin ``TEMPO_SLOTS[count][i]``."""
    rng = np.random.default_rng([seed, count])
    durations = _binned(rng, SONG_MIN_S, SONG_MAX_S, range(count))
    bpms = _binned(rng, BPM_MIN, BPM_MAX, TEMPO_SLOTS[count])
    return [
        SongSpec(
            f"song{i}",
            float(durations[i]),
            float(bpms[i]),
            RATES[1] if i == LOW_RATE_RANK else RATES[0],
        )
        for i in range(count)
    ]


def render_songs(seed: int, count: int, out_dir: Path) -> None:
    """Write ``<id>.wav`` per song plus ``songs.json`` with the ground truth.

    The manifest holds, per song, its rate, tempo, key, the beat times of
    its alignment and its melody as (onset_ticks, duration_ticks, midi).
    """
    from melscribe.synth import random_segment, render_audio, write_wav

    rng = np.random.default_rng(seed)
    manifest = []
    for spec in song_specs(seed, count):
        num_beats = max(1, round(spec.duration_s * spec.bpm / 60.0))
        seg = random_segment(
            rng, spec.seg_id, num_beats=num_beats,
            bpm_range=(spec.bpm, spec.bpm), lead_in_s=LEAD_IN_S,
        )
        audio = render_audio(seg.melody, seg.amap, sample_rate=spec.rate)
        write_wav(out_dir / f"{spec.seg_id}.wav", audio, spec.rate)
        manifest.append({
            "id": spec.seg_id,
            "rate": spec.rate,
            "bpm": spec.bpm,
            "audio_s": len(audio) / spec.rate,
            "key": {"tonic_pc": seg.key.tonic.pc, "mode": seg.key.mode},
            "beat_to_time_s": [float(t) for t in seg.amap.beat_to_time_s],
            "melody": [
                [n.onset_ticks, n.duration_ticks, n.pitch.midi] for n in seg.melody
            ],
        })
    with open(out_dir / "songs.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def load_songs(out_dir: Path) -> list[dict]:
    with open(out_dir / "songs.json", "r", encoding="utf-8") as fh:
        songs = json.load(fh)
    for song in songs:
        song["beat_to_time_s"] = np.asarray(song["beat_to_time_s"], dtype=np.float64)
    return songs


def reference_notes(song: dict) -> list[tuple[float, int]]:
    """(onset_s, midi) of a song's generated melody, from its beat times."""
    ticks = [on for on, _, _ in song["melody"]]
    onsets = _interp_times(song["beat_to_time_s"], np.asarray(ticks) / 4.0)
    return [(float(t), int(m)) for t, (_, _, m) in zip(onsets, song["melody"])]


def transcript_entries(notes: list[tuple[float, int]], end_s: float) -> list[dict]:
    """The transcript JSON list for (onset_s, midi) notes, offsets legato."""
    out = []
    for i, (onset, midi) in enumerate(notes):
        offset = notes[i + 1][0] if i + 1 < len(notes) else end_s
        out.append({"onset_s": onset, "offset_s": offset, "midi": midi})
    return out


def functional_doc(song: dict, artist: str) -> dict:
    """The annotation document ``dataset convert`` reads, for one song.

    Generated melodies are diatonic, so each pitch is a scale degree with
    no accidental, and its octave is counted from middle C's octave.
    """
    from melscribe.core import SCALE_OFFSETS

    tonic = song["key"]["tonic_pc"]
    offsets = SCALE_OFFSETS[song["key"]["mode"]]
    melody = []
    for onset, duration, midi in song["melody"]:
        rel = midi - 60 - tonic
        degree = next(d for d in range(7) if (rel - offsets[d]) % 12 == 0)
        on = Fraction(onset, 4)
        du = Fraction(duration, 4)
        melody.append({
            "scale_degree": degree + 1,
            "accidental": 0,
            "rel_octave": (rel - offsets[degree]) // 12,
            "onset_beats": {"num": on.numerator, "den": on.denominator},
            "duration_beats": {"num": du.numerator, "den": du.denominator},
        })
    times = song["beat_to_time_s"]
    return {
        "id": song["id"],
        "artist": artist,
        "audio_ref": song["id"],
        "start_s": float(times[0]),
        "end_s": float(times[-1]),
        "meter": {"beats_per_bar": 4, "beat_unit": 4},
        "key": dict(song["key"]),
        "key_changes": [],
        "meter_changes": [],
        "melody": melody,
        "chords": [],
    }


def beat_grid(song: dict) -> dict:
    """A detected-beat grid matching the song's tempo, downbeat every bar."""
    times = song["beat_to_time_s"]
    return {
        "beats_s": [float(t) for t in times],
        "downbeats": list(range(0, len(times), 4)),
    }


def training_examples(seed: int):
    """The criterion-5 set: 200 rendered 16-beat segments, 160/20/20.

    Renders and featurizes through the program (``logmel`` and
    ``beatwise_resample``), as a user preparing training data would.
    """
    from melscribe.features import beatwise_resample, logmel
    from melscribe.labeler import TrainExample, densify_melody
    from melscribe.synth import random_segment, render_audio

    rng = np.random.default_rng(seed)
    n_train = TRAIN_SEGMENTS - TRAIN_VALID - TRAIN_TEST
    out = []
    for i in range(TRAIN_SEGMENTS):
        seg = random_segment(rng, f"s{i:03d}", num_beats=TRAIN_BEATS)
        audio = render_audio(seg.melody, seg.amap)
        feats = beatwise_resample(logmel(audio, 16000), seg.amap)
        labels = densify_melody(seg.melody, seg.amap.num_beats)
        split = "train" if i < n_train else "valid" if i < n_train + TRAIN_VALID else "test"
        out.append(TrainExample(seg.seg_id, feats.frames, labels, seg.amap, split))
    return out


def train_settings(seed: int, steps: int):
    """The criterion-5 training recipe, cut at ``steps`` steps."""
    from melscribe.labeler import TrainSettings

    return TrainSettings(
        batch_size=8, lr=1e-3, max_steps=steps, eval_every=250, patience=10, seed=seed
    )


def labeler_config(seed: int):
    """The desk configuration seeded as ``melscribe train --seed`` seeds it."""
    from melscribe.labeler import DESK_CONFIG, LabelerConfig

    return LabelerConfig.from_dict({**DESK_CONFIG.to_dict(), "seed": seed})


def example_reference(example) -> list[tuple[float, int]]:
    """(onset_s, midi) of a training example's generated melody."""
    classes = example.labels.classes
    ticks = np.flatnonzero(classes > 0)
    onsets = _interp_times(example.amap.beat_to_time_s, ticks / 4.0)
    return [(float(t), int(classes[k]) + 20) for t, k in zip(onsets, ticks)]


def _passage_gaps(rng: np.random.Generator, n: int, dense_share: float) -> np.ndarray:
    """Onset gaps in passages of PASSAGE_NOTES notes; passage k is dense
    when the running share of dense passages falls below ``dense_share``."""
    gaps = []
    k = 0
    while len(gaps) < n:
        if int((k + 1) * dense_share) > int(k * dense_share):
            # several reference onsets inside one 50 ms tolerance window
            gaps.extend(rng.uniform(0.004, 0.03, size=PASSAGE_NOTES))
        else:
            gaps.extend(rng.uniform(0.08, 0.5, size=PASSAGE_NOTES))
        k += 1
    return np.asarray(gaps[:n])


def score_pairs(seed: int) -> list[tuple[list[dict], list[dict]]]:
    """(estimate, reference) transcript entry lists for the score corpus.

    Pair i has a note count from the i-th of PAIR_COUNT log-spaced bins in
    [100, 2000] and density class i % 3.  Estimates keep each reference
    note with probability 0.9, jittered by N(0, 20 ms) and moved an octave
    with probability 0.15; 10 % extra notes are inserted; the estimate of
    every third pair, counting from the second, is shifted by one octave
    as a whole, alternately up and down.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(PAIR_COUNT):
        frac = (i + 0.4 + 0.2 * rng.random()) / PAIR_COUNT
        n = int(PAIR_MIN_NOTES * (PAIR_MAX_NOTES / PAIR_MIN_NOTES) ** frac)
        ref_on = 0.5 + np.cumsum(_passage_gaps(rng, n, DENSE_SHARE[i % 3]))
        # a random walk folded back into 48..84
        walk = np.cumsum(rng.integers(-4, 5, size=n)) + 18
        ref_mid = 48 + np.abs(walk % 72 - 36)
        end_s = float(ref_on[-1]) + 0.5

        keep = rng.random(n) >= 0.1
        kept = int(keep.sum())
        est_on = ref_on[keep] + rng.normal(0.0, 0.02, size=kept)
        est_mid = ref_mid[keep] + 12 * ((rng.random(kept) < 0.15) * rng.choice([-1, 1], size=kept))
        n_ins = n // 10
        est_on = np.concatenate([est_on, rng.uniform(0.5, end_s - 0.5, size=n_ins)])
        est_mid = np.concatenate([est_mid, rng.integers(48, 85, size=n_ins)])
        est_mid = est_mid + 12 * ((i % 3 == 1) * (1 if i % 2 else -1))
        order = np.argsort(est_on, kind="stable")
        est_on, est_mid = est_on[order], est_mid[order]
        distinct = np.concatenate([[True], np.diff(est_on) > 0])
        est = list(zip(est_on[distinct].tolist(), est_mid[distinct].astype(int).tolist()))
        ref = list(zip(ref_on.tolist(), ref_mid.astype(int).tolist()))
        pairs.append((transcript_entries(est, end_s), transcript_entries(ref, end_s)))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Render the benchmark songs of one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    render_songs(args.seed, args.count, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
