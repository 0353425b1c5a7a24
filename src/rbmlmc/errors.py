"""Shared exception types and the one array-size check."""

import numpy as np


class FeasibilityError(ValueError):
    """An exact enumeration or family size exceeds its hard cap."""


def check_indexable(nbytes: int, what: str) -> None:
    """Refuse, before anything is allocated, one array of nbytes bytes that
    is past what numpy can index; the message names what asks for it."""
    if nbytes > np.iinfo(np.intp).max:
        raise FeasibilityError(f"{what} needs one array of about "
                               f"2^{nbytes.bit_length() - 1} bytes")
