"""Beat-synchronous onset labeler: model, loss, training, decoding."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import DESK_CONFIG, FULL_CONFIG, LabelerConfig
from .decode import class_probabilities, decode, decode_chords, onset_classes
from .gradcheck import gradient_check
from .labels import (
    CHORD_VOCAB,
    MELODY_VOCAB,
    DenseLabelSequence,
    LabelVocab,
    chord_to_class,
    class_to_chord,
    class_to_midi,
    densify,
    densify_chords,
    densify_melody,
    midi_to_class,
    vocab_by_name,
)
from .loss import feasible_shifts, log_softmax
from .model import (
    backward,
    forward_cached,
    forward_windowed,
    init_params,
    param_names,
    positional_encoding,
)
from .train import (
    TrainExample,
    TrainResult,
    TrainSettings,
    reference_melody,
    train,
    validation_f1,
)

__all__ = [
    "CHORD_VOCAB",
    "DESK_CONFIG",
    "FULL_CONFIG",
    "MELODY_VOCAB",
    "DenseLabelSequence",
    "LabelVocab",
    "LabelerConfig",
    "TrainExample",
    "TrainResult",
    "TrainSettings",
    "backward",
    "chord_to_class",
    "class_probabilities",
    "class_to_chord",
    "class_to_midi",
    "decode",
    "decode_chords",
    "densify",
    "densify_chords",
    "densify_melody",
    "feasible_shifts",
    "forward_cached",
    "forward_windowed",
    "gradient_check",
    "init_params",
    "load_checkpoint",
    "log_softmax",
    "midi_to_class",
    "onset_classes",
    "param_names",
    "positional_encoding",
    "reference_melody",
    "save_checkpoint",
    "train",
    "validation_f1",
    "vocab_by_name",
]
