import json
import re

import numpy as np
import pytest

from helpers import octave_shift, perf, random_perf
from melscribe.core import Melody, Pitch, PerfNote, ScoreNote
from melscribe.errors import FormatError, InputError, OrderingError, RangeError
from melscribe.evaluate import (
    DEFAULT_TOL_S,
    load_transcript,
    note_f1,
    octave_invariant_f1,
    save_transcript,
)
from oracles import oracle_note_f1

EMPTY = Melody(())


def test_exact_match_is_perfect():
    a = perf([(0.0, 60), (0.5, 64), (1.0, 67)])
    rep = note_f1(a, a)
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
    assert rep.matched == 3
    assert rep.best_sigma == 0


def test_tolerance_boundary_is_inclusive():
    ref = perf([(1.0, 60)])
    at_edge = perf([(1.05, 60)])
    just_past = perf([(1.0500001, 60)])
    assert note_f1(at_edge, ref).f1 == 1.0
    assert note_f1(just_past, ref).f1 == 0.0
    assert note_f1(perf([(0.95, 60)]), ref).f1 == 1.0
    assert DEFAULT_TOL_S == 0.05


def test_empty_conventions():
    rep = note_f1(EMPTY, EMPTY)
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
    got = note_f1(perf([(0.0, 60)]), EMPTY)
    assert (got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0)
    got = note_f1(EMPTY, perf([(0.0, 60)]))
    assert (got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0)


def test_matched_counts_onsets_regardless_of_pitch():
    ref = perf([(0.0, 60), (1.0, 64)])
    est = perf([(0.01, 59), (1.01, 63)])  # close onsets, wrong pitches
    rep = note_f1(est, ref)
    assert rep.matched == 2
    assert rep.f1 == 0.0


def test_each_note_matches_at_most_once():
    ref = perf([(0.0, 60)])
    est = perf([(0.01, 60), (0.02, 60)])
    rep = note_f1(est, ref)
    assert rep.matched == 1
    assert rep.precision == 0.5
    assert rep.recall == 1.0


def test_tolerance_validation():
    a = perf([(0.0, 60)])
    with pytest.raises(InputError):
        note_f1(a, a, tol_s=-0.1)
    with pytest.raises(InputError):
        note_f1(a, a, tol_s=float("nan"))
    with pytest.raises(InputError):
        octave_invariant_f1(a, a, tol_s=-0.1)
    note_f1(a, a, tol_s=0.0)


def test_score_form_rejected():
    score_mel = Melody((ScoreNote(0, 4, Pitch(60)),))
    with pytest.raises(InputError):
        note_f1(score_mel, perf([(0.0, 60)]))
    with pytest.raises(InputError):
        note_f1(perf([(0.0, 60)]), score_mel)


def test_octave_invariant_forgives_global_shift():
    ref = perf([(0.0, 60), (0.5, 64), (1.0, 67)])
    est = perf([(0.0, 72), (0.5, 76), (1.0, 79)])
    assert note_f1(est, ref).f1 == 0.0
    rep = octave_invariant_f1(est, ref)
    assert rep.f1 == 1.0
    assert rep.best_sigma == -1


def test_octave_invariant_never_below_plain():
    rng = np.random.default_rng(0)
    for _ in range(100):
        est = random_perf(rng, int(rng.integers(0, 10)))
        ref = random_perf(rng, int(rng.integers(0, 10)))
        assert octave_invariant_f1(est, ref).f1 >= note_f1(est, ref).f1 - 1e-12


def test_octave_invariant_equals_best_explicit_shift():
    rng = np.random.default_rng(1)
    for _ in range(60):
        est = random_perf(rng, int(rng.integers(1, 8)), midi_lo=48, midi_hi=72)
        ref = random_perf(rng, int(rng.integers(1, 8)), midi_lo=48, midi_hi=72)
        rep = octave_invariant_f1(est, ref)
        best = 0.0
        for s in range(-3, 4):
            try:
                cand = note_f1(octave_shift(est, s), ref).f1
            except RangeError:
                continue
            best = max(best, cand)
        assert abs(rep.f1 - best) < 1e-12
        shifted = octave_shift(est, rep.best_sigma)
        assert abs(note_f1(shifted, ref).f1 - rep.f1) < 1e-12


def test_best_sigma_tie_breaks():
    # both sigma=0 and sigma=1 give f1=0; prefer 0
    rep = octave_invariant_f1(perf([(0.0, 60)]), perf([(5.0, 60)]))
    assert rep.best_sigma == 0
    # sigma -1 and +1 both recover one of two notes; prefer -1
    ref = perf([(0.0, 48), (1.0, 72)])
    est = perf([(0.0, 60), (1.0, 60)])
    rep = octave_invariant_f1(est, ref)
    assert rep.precision == 0.5
    assert rep.best_sigma == -1


def test_oracle_agrees_on_random_pairs():
    rng = np.random.default_rng(2)
    for trial in range(300):
        est = random_perf(rng, int(rng.integers(0, 9)))
        ref = random_perf(rng, int(rng.integers(0, 9)))
        fast = note_f1(est, ref)
        slow = oracle_note_f1(est, ref)
        assert (fast.precision, fast.recall, fast.f1, fast.matched) == (
            slow.precision, slow.recall, slow.f1, slow.matched
        ), trial


def test_oracle_rejects_large_inputs():
    rng = np.random.default_rng(3)
    big = random_perf(rng, 9)
    small = random_perf(rng, 3)
    with pytest.raises(InputError):
        oracle_note_f1(big, small)
    with pytest.raises(InputError):
        oracle_note_f1(small, big)


def test_report_json_dict():
    rep = note_f1(perf([(0.0, 60)]), perf([(0.0, 60)]))
    d = rep.to_json_dict()
    assert d == {
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0,
        "best_sigma": 0,
        "matched": 1,
    }


def test_transcript_round_trip(tmp_path):
    mel = perf([(0.25, 60), (0.75, 67), (1.5, 55)])
    path = tmp_path / "t.json"
    save_transcript(path, mel)
    back = load_transcript(path)
    assert [(n.onset_s, n.offset_s, n.pitch.midi) for n in back] == [
        (n.onset_s, n.offset_s, n.pitch.midi) for n in mel
    ]
    data = json.loads(path.read_text())
    assert isinstance(data, list)
    assert set(data[0]) == {"onset_s", "offset_s", "midi"}


def test_transcript_load_sorts_by_onset(tmp_path):
    path = tmp_path / "t.json"
    entries = [
        {"onset_s": 1.0, "offset_s": 1.4, "midi": 64},
        {"onset_s": 0.0, "offset_s": 0.9, "midi": 60},
    ]
    path.write_text(json.dumps(entries))
    mel = load_transcript(path)
    assert [n.pitch.midi for n in mel] == [60, 64]


def test_transcript_save_rejects_score_form(tmp_path):
    score_mel = Melody((ScoreNote(0, 4, Pitch(60)),))
    with pytest.raises(InputError):
        save_transcript(tmp_path / "x.json", score_mel)


def test_transcript_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    for payload in (
        "{not json",
        json.dumps({"onset_s": 0.0}),
        json.dumps([{"onset_s": 0.0, "midi": 60}]),
        json.dumps([{"onset_s": 0.5, "offset_s": 0.5, "midi": 60}]),
        json.dumps([{"onset_s": 0.0, "offset_s": 1.0, "midi": "x"}]),
        # only JSON numbers for times and JSON integers for pitches
        json.dumps([{"onset_s": "0.5", "offset_s": 1.0, "midi": 60}]),
        json.dumps([{"onset_s": "1_000", "offset_s": 2000.0, "midi": 60}]),
        json.dumps([{"onset_s": True, "offset_s": 2.0, "midi": 60}]),
        json.dumps([{"onset_s": 0.0, "offset_s": 1.0, "midi": True}]),
        json.dumps([{"onset_s": 0.0, "offset_s": 1.0, "midi": 60.0}]),
        json.dumps([{"onset_s": 0.0, "offset_s": None, "midi": 60}]),
        # integers too large for float64 or int64, or for Python to parse
        '[{"onset_s": 0.0, "offset_s": 1%s, "midi": 60}]' % ("0" * 400),
        '[{"onset_s": 0.0, "offset_s": 1.0, "midi": 6%s}]' % ("0" * 400),
        '[{"onset_s": 0.0, "offset_s": 1%s, "midi": 60}]' % ("0" * 5000),
        # values PerfNote, Pitch and Melody refuse
        '[{"onset_s": NaN, "offset_s": 1.0, "midi": 60}]',
        '[{"onset_s": 0.0, "offset_s": Infinity, "midi": 60}]',
        json.dumps([{"onset_s": 0.0, "offset_s": 1.0, "midi": 109}]),
        json.dumps([{"onset_s": 0.0, "offset_s": 1.0, "midi": 60},
                    {"onset_s": 0.0, "offset_s": 2.0, "midi": 62}]),
    ):
        path.write_text(payload)
        with pytest.raises(FormatError):
            load_transcript(path)


def reference_load(entries) -> Melody:
    """The transcript reader written one entry at a time."""
    notes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"onset_s", "offset_s", "midi"}:
            raise FormatError(f"entry {i}: wrong keys")
        times = (entry["onset_s"], entry["offset_s"])
        if any(type(t) not in (int, float) for t in times) or type(entry["midi"]) is not int:
            raise FormatError(f"entry {i}: wrong types")
        try:
            notes.append(PerfNote(float(times[0]), float(times[1]), Pitch(entry["midi"])))
        except (OverflowError, RangeError, OrderingError) as exc:
            raise FormatError(f"entry {i}: {exc}") from exc
    notes.sort(key=lambda n: n.onset_s)
    try:
        return Melody(tuple(notes))
    except OrderingError as exc:
        raise FormatError(str(exc)) from exc


def corrupt(entries, i, kind):
    """A copy of ``entries`` with entry ``i`` made invalid in one way."""
    bad = [dict(e) for e in entries]
    entry = bad[i]
    if kind == "missing key":
        del entry["offset_s"]
    elif kind == "extra key":
        entry["velocity"] = 90
    elif kind == "not an object":
        bad[i] = [entry["onset_s"], entry["offset_s"], entry["midi"]]
    elif kind == "string time":
        entry["onset_s"] = str(entry["onset_s"])
    elif kind == "bool time":
        entry["offset_s"] = True
    elif kind == "float midi":
        entry["midi"] = float(entry["midi"])
    elif kind == "bool midi":
        entry["midi"] = False
    elif kind == "huge time":
        entry["offset_s"] = 10**400
    elif kind == "huge midi":
        entry["midi"] = -(10**30)
    elif kind == "nan time":
        entry["onset_s"] = float("nan")
    elif kind == "offset not after onset":
        entry["offset_s"] = entry["onset_s"]
    elif kind == "midi out of range":
        entry["midi"] = 20
    return bad


CORRUPTIONS = (
    "missing key", "extra key", "not an object", "string time", "bool time",
    "float midi", "bool midi", "huge time", "huge midi", "nan time",
    "offset not after onset", "midi out of range",
)


def test_transcript_reader_matches_per_entry_reference(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "t.json"
    for trial in range(60):
        n = int(rng.integers(0, 40))
        onsets = rng.permutation(np.unique(rng.uniform(0.0, 20.0, size=n)))
        entries = []
        for k, onset in enumerate(onsets.tolist()):
            if k % 5 == 0:  # integer seconds are JSON numbers too
                onset = float(k)
            offset = onset + float(rng.uniform(0.01, 1.0))
            if k % 7 == 3:
                offset = int(onset) + 2
            entries.append({"onset_s": onset, "offset_s": offset,
                            "midi": int(rng.integers(21, 109))})
        onset_list = [e["onset_s"] for e in entries]
        if len(set(onset_list)) < len(onset_list):
            continue  # the integer onsets above collided
        path.write_text(json.dumps(entries))
        got = load_transcript(path)
        want = reference_load(entries)
        assert got == want, trial
        assert [type(n.onset_s) for n in got] == [float] * len(got)
        if not entries:
            continue
        for kind in CORRUPTIONS:
            i = int(rng.integers(0, len(entries)))
            bad = corrupt(entries, i, kind)
            path.write_text(json.dumps(bad))
            with pytest.raises(FormatError) as raised:
                load_transcript(path)
            with pytest.raises(FormatError):
                reference_load(bad)
            where = rf"(\$\[{i}\]|\b(entry|note) {i}\b)"
            assert re.search(where, str(raised.value)), (kind, i, raised.value)
        # two notes on one onset: both are named
        if len(entries) > 1:
            i, j = sorted(rng.choice(len(entries), size=2, replace=False).tolist())
            bad = [dict(e) for e in entries]
            bad[j]["onset_s"] = bad[i]["onset_s"]
            bad[j]["offset_s"] = bad[i]["offset_s"] + 0.5
            path.write_text(json.dumps(bad))
            with pytest.raises(FormatError, match=rf"notes {i} and {j} share onset"):
                load_transcript(path)
            with pytest.raises(FormatError):
                reference_load(bad)
