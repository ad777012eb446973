"""Error-correcting codes and locally decodable codes.

The protocols consume two abstract interfaces:

* :class:`~repro.coding.interfaces.BinaryCode` — constant rate/distance
  binary codes (Definition 3; the Justesen code of Lemma 2.1 is substituted
  by :func:`~repro.coding.justesen.make_justesen_code`; README, "Code
  design", has its inner code).
* :class:`~repro.coding.ldc_interfaces.LocallyDecodableCode` — non-adaptive
  LDCs (Definition 4; the KMRS code of Lemma 2.2 is substituted by
  :class:`~repro.coding.reed_muller.ReedMullerLDC`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "interfaces": ("BinaryCode", "DecodingFailure"),
    "ldc_interfaces": ("LocalDecodingFailure", "LocallyDecodableCode"),
    "linear": ("LinearBlockCode", "best_effort_linear_code",
               "extended_hamming_8_4", "search_linear_code"),
    "repetition": ("RepetitionCode",),
    "reed_solomon": ("ReedSolomonBinaryCode", "ReedSolomonCodec"),
    "justesen": ("ConcatenatedCode", "PaddedCode", "justesen_message_capacity",
                 "make_justesen_code"),
    "hadamard": ("HadamardLDC",),
    "reed_muller": ("ReedMullerLDC",),
})
