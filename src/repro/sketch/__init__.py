"""Sparse-recovery sketches (Lemma 2.3) used to locate and correct the
corrupted messages in the adaptive compiler (Lemma 2.4, Section 5.2)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "onesparse": ("OneSparseCell",),
    "ksparse": ("KSparseSketch", "SketchPlanes", "SketchPlaneStack",
                "SketchRecoveryError", "SketchSpec", "planes_supported"),
})
