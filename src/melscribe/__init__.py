"""Beat-synchronous melody transcription and lead-sheet rendering.

The pipeline: align a detected beat grid to a segment, pool log-mel
frames into one vector per sixteenth note, label onsets with a small
transformer trained under an octave-tolerant loss, evaluate with
octave-invariant note F1, and render the result as LilyPond or MIDI.
"""

from .core import (
    CHORD_QUALITIES,
    CHORD_TONES,
    MIDI_MAX,
    MIDI_MIN,
    MODES,
    PITCH_VOCAB_SIZE,
    SCALE_OFFSETS,
    TICKS_PER_BEAT,
    ChordSpan,
    ChordSymbol,
    KeySignature,
    Melody,
    Meter,
    PerfNote,
    Pitch,
    PitchClass,
    ScoreNote,
    Segment,
    canonical_octave_shift,
    octave_shift,
)
from .errors import (
    CoverageError,
    FormatError,
    InputError,
    InsufficientBeatsError,
    MelscribeError,
    OrderingError,
    ParseError,
    RangeError,
    ShapeError,
)

__version__ = "0.1.0"

__all__ = [
    "CHORD_QUALITIES",
    "CHORD_TONES",
    "MIDI_MAX",
    "MIDI_MIN",
    "MODES",
    "PITCH_VOCAB_SIZE",
    "SCALE_OFFSETS",
    "TICKS_PER_BEAT",
    "ChordSpan",
    "ChordSymbol",
    "CoverageError",
    "FormatError",
    "InputError",
    "InsufficientBeatsError",
    "KeySignature",
    "Melody",
    "MelscribeError",
    "Meter",
    "OrderingError",
    "ParseError",
    "PerfNote",
    "Pitch",
    "PitchClass",
    "RangeError",
    "ScoreNote",
    "Segment",
    "ShapeError",
    "canonical_octave_shift",
    "octave_shift",
    "__version__",
]
