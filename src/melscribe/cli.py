"""Command-line pipeline: dataset prep, features, training, transcription.

Results go to stdout as one JSON object per invocation; progress and
warnings go to stderr.  Exit codes: 0 on success, 1 for domain errors
(bad data, failed parses), 2 for usage errors and for input or output
paths that are missing, are directories or cannot be used.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

from . import htparse
from .align import AlignmentMap, BeatGrid, refine_alignment
from .core import KeySignature, Meter, PitchClass
from .errors import FormatError, InputError, MelscribeError, ParseError, RangeError, in_file
from .evaluate import (
    DEFAULT_TOL_S,
    load_transcript,
    note_f1,
    octave_invariant_f1,
    save_transcript,
)
from .features import (
    FeatureMatrix,
    ResampledFeatures,
    beatwise_resample,
    load_wav,
    logmel,
    read_ssft,
    write_ssft,
)
from .jsonio import field, reading, write_json
from .labeler.checkpoint import load_checkpoint, save_checkpoint
from .labeler.config import DESK_CONFIG, FULL_CONFIG, LabelerConfig
from .labeler.decode import check_tau, decode, decode_chords
from .labeler.labels import densify_chords, densify_melody
from .labeler.model import forward_windowed
from .labeler.train import TrainExample, TrainSettings, train
from .leadsheet import (
    assemble,
    emit_lilypond,
    emit_midi,
    load_chord_changes,
    save_chord_changes,
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _info(text: str) -> None:
    print(text, file=sys.stderr)


def _parse_meter(text: str) -> Meter:
    try:
        beats, unit = text.split("/")
        return Meter(int(beats), int(unit))
    except ValueError as exc:
        raise InputError(f"meter {text!r} must look like 4/4") from exc


def _parse_key(text: str) -> KeySignature | None:
    if text == "auto":
        return None
    try:
        tonic, mode = text.split(":")
        tonic_pc = int(tonic)
    except ValueError as exc:
        raise InputError(
            f"key {text!r} must be 'auto' or '<tonic-pc>:<mode>' like 0:major"
        ) from exc
    return KeySignature(PitchClass(tonic_pc), mode)


def _tau(text: str) -> float:
    """A ``--tau`` value; argparse exits 2 on one that ``check_tau`` refuses."""
    try:
        return check_tau(text)
    except (ValueError, RangeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int, rule: str):
    """An argparse type for an integer of at least ``low``; argparse exits 2 on
    any other value, stating ``rule``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


_seed = _int_at_least(0, "seed must be non-negative")


def cmd_dataset_convert(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for item in args.inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        elif p.exists():
            paths.append(p)
        else:
            raise FileNotFoundError(item)
    artists: dict[str, str] = {}
    sources: dict[str, Path] = {}
    rejected = 0
    for path in paths:
        try:
            segment, artist = htparse.load_functional(path)
        except FormatError as exc:
            _info(f"skipped {exc}")
            rejected += 1
            continue
        if segment.id in sources:
            _info(f"skipped {path}: duplicate id {segment.id!r}, "
                  f"already converted from {sources[segment.id]}")
            rejected += 1
            continue
        sources[segment.id] = path
        if artist is not None:
            artists[segment.id] = artist
        htparse.save_segment(out_dir / f"{segment.id}.segment.json", segment)
    write_json(out_dir / "artists.json", artists)
    _emit({"converted": len(sources), "rejected": rejected, "out": str(out_dir)})
    return 0 if sources or not rejected else 1


def cmd_dataset_split(args) -> int:
    seg_paths = sorted(Path(args.dir).glob("*.segment.json"))
    if not seg_paths:
        raise FileNotFoundError(f"no *.segment.json files under {args.dir}")
    with reading(args.artists) as artists:
        if not isinstance(artists, dict):
            raise ParseError("expected an object mapping segment ids to artists", "$")
        for seg_id in artists:
            field(artists, seg_id, str, "$")
    segments = [htparse.load_segment(p) for p in seg_paths]
    try:
        assignment = htparse.stratified_split([s.id for s in segments], artists, args.seed)
    except KeyError as exc:
        raise InputError(f"no artist recorded for segment {exc}") from None
    for path, segment in zip(seg_paths, segments):
        htparse.save_segment(path, dataclasses.replace(segment, split=assignment[segment.id]))
    counts = Counter(assignment.values())
    _emit({split: counts.get(split, 0) for split in ("train", "valid", "test")})
    return 0


def cmd_align_refine(args) -> int:
    grid = BeatGrid.load(args.grid)
    amap = refine_alignment(grid, args.start, args.beats)
    amap.save(args.out)
    _emit(
        {
            "beats": amap.num_beats,
            "start_s": float(amap.beat_to_time_s[0]),
            "end_s": float(amap.beat_to_time_s[-1]),
            "out": str(args.out),
        }
    )
    return 0


def _mel_one(job: tuple[str, str]) -> tuple[str, int]:
    audio_path, out_path = job
    samples, rate = load_wav(audio_path)  # names the file in its own errors
    with in_file(audio_path):  # logmel refuses the header's rate or NaN float samples
        feats = logmel(samples, rate)
    write_ssft(out_path, feats)
    return out_path, feats.n_frames


def cmd_features_mel(args) -> int:
    for path in args.audio:
        if not Path(path).exists():
            raise FileNotFoundError(path)
    if args.out is not None:
        jobs = [(args.audio[0], args.out)]
    else:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = [(p, str(out_dir / (Path(p).stem + ".ssft"))) for p in args.audio]
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            results = list(pool.map(_mel_one, jobs))
    else:
        results = [_mel_one(job) for job in jobs]
    _emit({"files": [{"out": out, "frames": n} for out, n in results]})
    return 0


def cmd_features_resample(args) -> int:
    feats = read_ssft(args.features, FeatureMatrix)
    amap = AlignmentMap.load(args.alignment)
    resampled = beatwise_resample(feats, amap)
    write_ssft(args.out, resampled)
    _emit({"ticks": resampled.num_ticks, "dim": resampled.dim, "out": str(args.out)})
    return 0


def _labeler_config(name: str, vocab: str, seed: int) -> LabelerConfig:
    base = {"desk": DESK_CONFIG, "full": FULL_CONFIG}[name]
    return dataclasses.replace(base, vocab=vocab, seed=seed)


def cmd_train(args) -> int:
    settings = TrainSettings(
        batch_size=args.batch_size,
        lr=args.lr,
        max_steps=args.steps,
        eval_every=args.eval_every,
        patience=args.patience,
        seed=args.seed,
    )
    cfg = _labeler_config(args.config, args.vocab, args.seed)
    data_dir = Path(args.data)
    seg_paths = sorted(data_dir.glob("*.segment.json"))
    if not seg_paths:
        raise FileNotFoundError(f"no *.segment.json files under {data_dir}")
    examples = []
    for seg_path in seg_paths:
        segment = htparse.load_segment(seg_path)
        if segment.split is None:
            raise InputError(f"{segment.id}: segment has no split; run dataset split")
        stem = data_dir / segment.id
        amap = AlignmentMap.load(f"{stem}.alignment.json")
        resampled = read_ssft(f"{stem}.features.ssft", ResampledFeatures)
        if args.vocab == "melody":
            labels = densify_melody(segment.melody, amap.num_beats)
        else:
            labels = densify_chords(segment.chords, amap.num_beats)
        examples.append(
            TrainExample(segment.id, resampled.frames, labels, amap, segment.split)
        )
    result = train(cfg, examples, settings, log=_info)
    save_checkpoint(args.out, cfg, result.params, result.tau, result.best_step)
    _emit(
        {
            "best_step": result.best_step,
            "steps_run": result.steps_run,
            "tau": result.tau,
            "valid_f1": result.valid_f1,
            "out": str(args.out),
        }
    )
    return 0


def cmd_transcribe(args) -> int:
    cfg, params, tau, _step = load_checkpoint(args.checkpoint)
    amap = AlignmentMap.load(args.alignment)
    feats = read_ssft(args.features)
    if isinstance(feats, FeatureMatrix):
        feats = beatwise_resample(feats, amap)
    if args.tau is not None:
        tau = args.tau
    logits = forward_windowed(cfg, params, feats.frames)
    if cfg.vocab == "melody":
        melody = decode(logits, tau, amap)
        save_transcript(args.out, melody)
        _emit({"notes": len(melody), "tau": tau, "out": str(args.out)})
    else:
        changes = decode_chords(logits, tau)
        save_chord_changes(args.out, changes)
        _emit({"chords": len(changes), "tau": tau, "out": str(args.out)})
    return 0


def cmd_evaluate(args) -> int:
    estimate = load_transcript(args.estimate)
    reference = load_transcript(args.reference)
    if args.octave_invariant:
        report = octave_invariant_f1(estimate, reference, args.tolerance)
    else:
        report = note_f1(estimate, reference, args.tolerance)
    _emit(report.to_json_dict())
    return 0


def cmd_leadsheet(args) -> int:
    melody = load_transcript(args.transcript)
    amap = AlignmentMap.load(args.alignment)
    chords = load_chord_changes(args.chords) if args.chords else []
    sheet = assemble(
        melody, chords, amap, _parse_meter(args.meter), _parse_key(args.key)
    )
    # Both are built before either is written, so a sheet one of them
    # refuses leaves no file behind; a path that refuses the MIDI file
    # takes the LilyPond file already written with it.
    lilypond = emit_lilypond(sheet) if args.lilypond else None
    midi = emit_midi(sheet, amap) if args.midi else None
    outputs = {}
    if lilypond is not None:
        Path(args.lilypond).write_text(lilypond, encoding="utf-8")
        outputs["lilypond"] = str(args.lilypond)
    if midi is not None:
        try:
            Path(args.midi).write_bytes(midi)
        except OSError:
            if lilypond is not None:
                Path(args.lilypond).unlink(missing_ok=True)
            raise
        outputs["midi"] = str(args.midi)
    _emit(
        {
            "key": {"tonic": sheet.key.tonic.pc, "mode": sheet.key.mode},
            "tempo_bpm": sheet.tempo_bpm,
            "notes": len(sheet.melody),
            "chords": len(sheet.chords),
            **outputs,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melscribe",
        description="Beat-synchronous melody transcription to lead sheets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = sub.add_parser("dataset", help="convert and split annotation data")
    dataset_sub = dataset.add_subparsers(dest="subcommand", required=True)
    convert = dataset_sub.add_parser(
        "convert", help="functional JSON to absolute segment files"
    )
    convert.add_argument("inputs", nargs="+", help="functional JSON files or directories")
    convert.add_argument("--out", required=True, help="output directory")
    convert.set_defaults(func=cmd_dataset_convert)
    split = dataset_sub.add_parser("split", help="assign artist-stratified splits")
    split.add_argument("--dir", required=True, help="directory of *.segment.json")
    split.add_argument("--artists", required=True, help="artists.json from convert")
    split.add_argument("--seed", type=_seed, default=0)
    split.set_defaults(func=cmd_dataset_split)

    align_cmd = sub.add_parser("align", help="beat alignment")
    align_sub = align_cmd.add_subparsers(dest="subcommand", required=True)
    refine = align_sub.add_parser("refine", help="anchor a segment on a beat grid")
    refine.add_argument("--grid", required=True, help="beat grid JSON")
    refine.add_argument("--start", type=float, required=True, help="rough start (s)")
    refine.add_argument("--beats", type=int, required=True, help="beats in the segment")
    refine.add_argument("--out", required=True, help="alignment JSON to write")
    refine.set_defaults(func=cmd_align_refine)

    feats = sub.add_parser("features", help="acoustic features")
    feats_sub = feats.add_subparsers(dest="subcommand", required=True)
    mel = feats_sub.add_parser("mel", help="log-mel spectrogram to SSFT")
    mel.add_argument("audio", nargs="+", help="input WAV files")
    mel_out = mel.add_mutually_exclusive_group(required=True)
    mel_out.add_argument("--out", help="output SSFT path (single input)")
    mel_out.add_argument("--out-dir", help="output directory (batch)")
    mel.add_argument("--jobs", type=_int_at_least(1, "jobs must be at least 1"), default=1,
                     help="parallel workers")
    mel.set_defaults(func=cmd_features_mel)
    resample = feats_sub.add_parser("resample", help="pool frames per sixteenth")
    resample.add_argument("--features", required=True, help="fixed-rate SSFT input")
    resample.add_argument("--alignment", required=True, help="alignment JSON")
    resample.add_argument("--out", required=True, help="tick-indexed SSFT output")
    resample.set_defaults(func=cmd_features_resample)

    train_cmd = sub.add_parser("train", help="train an onset labeler")
    train_cmd.add_argument("--data", required=True,
                           help="directory of segment/alignment/features triples")
    train_cmd.add_argument("--out", required=True, help="checkpoint path")
    train_cmd.add_argument("--config", choices=("desk", "full"), default="desk")
    train_cmd.add_argument("--vocab", choices=("melody", "chords"), default="melody")
    train_cmd.add_argument("--steps", type=int, default=15000)
    train_cmd.add_argument("--lr", type=float, default=1e-4)
    train_cmd.add_argument("--batch-size", type=int, default=8)
    train_cmd.add_argument("--eval-every", type=int, default=250)
    train_cmd.add_argument("--patience", type=int, default=10)
    train_cmd.add_argument("--seed", type=_seed, default=0)
    train_cmd.set_defaults(func=cmd_train)

    transcribe = sub.add_parser("transcribe", help="run a checkpoint on features")
    transcribe.add_argument("--checkpoint", required=True)
    transcribe.add_argument("--features", required=True,
                            help="SSFT features, fixed-rate or tick-indexed")
    transcribe.add_argument("--alignment", required=True, help="alignment JSON")
    transcribe.add_argument("--tau", type=_tau, help="override the stored threshold")
    transcribe.add_argument("--out", required=True, help="transcript JSON to write")
    transcribe.set_defaults(func=cmd_transcribe)

    evaluate = sub.add_parser("evaluate", help="score a transcript against a reference")
    evaluate.add_argument("--estimate", required=True, help="transcript JSON")
    evaluate.add_argument("--reference", required=True, help="transcript JSON")
    evaluate.add_argument("--octave-invariant", action="store_true")
    evaluate.add_argument("--tolerance", type=float, default=DEFAULT_TOL_S,
                          help="onset tolerance in seconds")
    evaluate.set_defaults(func=cmd_evaluate)

    sheet = sub.add_parser("leadsheet", help="assemble and emit a lead sheet")
    sheet.add_argument("--transcript", required=True, help="transcript JSON")
    sheet.add_argument("--alignment", required=True, help="alignment JSON")
    sheet.add_argument("--chords", help="chord changes JSON")
    sheet.add_argument("--meter", default="4/4")
    sheet.add_argument("--key", default="auto",
                       help="'auto' or '<tonic-pc>:<mode>' like 0:major")
    sheet.add_argument("--lilypond", help="LilyPond output path")
    sheet.add_argument("--midi", help="MIDI output path")
    sheet.set_defaults(func=cmd_leadsheet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_features_mel:
        [(stem, count)] = Counter(Path(p).stem for p in args.audio).most_common(1)
        if args.out is not None and len(args.audio) != 1:
            parser.error("features mel: --out takes exactly one input; use --out-dir for batches")
        if args.out_dir is not None and count > 1:
            parser.error(f"features mel: {count} inputs would write "
                         f"{Path(args.out_dir) / stem}.ssft")
    try:
        return args.func(args)
    except MelscribeError as exc:
        _info(f"error: {exc}")
        return 1
    except FileNotFoundError as exc:
        _info(f"error: not found: {exc}")
        return 2
    except (FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        _info(f"error: unusable path: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
