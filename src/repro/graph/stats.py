"""The wavefront reduction metric of Equation 7.

``wavefront_reduction_percent`` is the quantity Algorithm 2 compares
against the threshold ω, and the x/y data of the correlation study in
Figures 10a/10b.
"""

__all__ = ["wavefront_reduction_percent"]


def wavefront_reduction_percent(w_original: int, w_sparsified: int) -> float:
    """Relative wavefront reduction, Equation 7 of the paper:

    ``(w_A − w_Â) / w_A × 100``.

    Positive values mean the sparsified matrix needs fewer barriers.
    """
    if w_original <= 0:
        raise ValueError("original wavefront count must be positive")
    return 100.0 * (w_original - w_sparsified) / w_original
