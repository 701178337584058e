"""Synthetic audio: ``render_audio`` against the per-note render it replaced,
and the sample rates that it and ``write_wav`` refuse."""

import numpy as np
import pytest

from helpers import score
from melscribe.align import AlignmentMap
from melscribe.errors import InputError
from melscribe.synth import random_segment, render_audio, write_wav
from oracles import render_per_note


#: Eight beats, two of them 0.03 s long: a sixteenth there is 7.5 ms, so
#: each of those notes lasts the 0.04 s minimum and overlaps the next
#: five, and their sum peaks above 0.95 at every audio rate.
_PHRASE_MAP = AlignmentMap(0.5 + np.cumsum([0.0, 0.5, 0.5, 0.03, 0.03, 0.5, 1.0, 0.5, 0.5]))
_PHRASE = score(
    [(0, 1, 60), (1, 2, 60), (3, 4, 60)]  # one pitch at three lengths
    + [(7, 1, 67)]
    + [(8 + i, 1, midi) for i, midi in enumerate((72, 76, 79, 84) * 2)]  # overlapping
    + [(16, 4, 100), (20, 8, 108)]  # second partials at or past Nyquist at 8 and 16 kHz
    + [(28, 2, 60), (30, 2, 60)]  # the first pitch again, last in the span
)

#: At 1 Hz the output has 5 samples and the second note 3 from sample 3,
#: so the end cuts it to 2.  Only rounding at a rate of a few hertz can do
#: that: above it every note ends inside the 0.3 s tail.
_CUT_MAP = AlignmentMap([0.0, 2.51, 5.15])
_CUT = score([(0, 4, 60), (4, 4, 62)])


def _segments(rate):
    rng = np.random.default_rng(rate)
    return [random_segment(rng, f"s{i}", num_beats=16) for i in range(4)]


@pytest.mark.parametrize("width", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [1, 3, 30, 8000, 16000, 44100])
def test_render_audio_matches_the_per_note_render_byte_for_byte(monkeypatch, rate, width):
    """Below 40 Hz a note has no release fade (0.025 s is under one
    sample), and below a few hertz notes round to no samples at all.

    With ``np.float32`` standing for float64, both renders return their
    float64 sums, so the check sees every bit of them, not only the bits
    that survive rounding to float32.
    """
    monkeypatch.setattr(np, "float32", width)
    cases = [(_PHRASE, _PHRASE_MAP), (_CUT, _CUT_MAP)]
    cases += [(seg.melody, seg.amap) for seg in _segments(rate)]
    for melody, amap in cases:
        audio = render_audio(melody, amap, rate)
        assert audio.dtype == width
        assert audio.tobytes() == render_per_note(melody, amap, rate).tobytes()
    if rate >= 8000:  # the overlapping notes set off the peak scaling; a segment does not
        assert np.abs(render_audio(_PHRASE, _PHRASE_MAP, rate)).max() == width(0.95)
        assert np.abs(render_audio(*cases[2], rate)).max() < 0.95


@pytest.mark.parametrize("rate", [0, -5, 0.5, 16000.5, float("nan")])
def test_a_sample_rate_that_is_not_a_positive_whole_number_is_refused(tmp_path, rate):
    with pytest.raises(InputError, match=r"sample rate .* must be a positive whole number$"):
        render_audio(_CUT, _CUT_MAP, rate)
    wav = tmp_path / "x.wav"
    with pytest.raises(InputError, match=r"sample rate .* must be a positive whole number$"):
        write_wav(wav, np.zeros(4, np.float32), rate)
    assert not wav.exists()
