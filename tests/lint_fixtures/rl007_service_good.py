"""RL007 good (linted as repro.service.engine): the service layer sits
*above* the incremental engine and the vector kernels — importing both
downward is its sanctioned shape."""

from repro.incremental.reverdict import accept_masks
from repro.incremental.state import AdmissionState
from repro.vector.xp import spans_to_words


def shape(state: AdmissionState):
    return spans_to_words, accept_masks
