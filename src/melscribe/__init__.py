"""Beat-synchronous melody transcription and lead-sheet rendering.

The pipeline: align a detected beat grid to a segment, pool log-mel
frames into one vector per sixteenth note, label onsets with a small
transformer trained under an octave-tolerant loss, evaluate with
octave-invariant note F1, and render the result as LilyPond or MIDI.
Each name is imported from its module, such as
``from melscribe.features import logmel``.
"""
