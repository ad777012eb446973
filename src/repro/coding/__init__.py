"""Error-correcting codes and locally decodable codes.

The protocols consume two abstract interfaces:

* :class:`~repro.coding.interfaces.BinaryCode` — constant rate/distance
  binary codes (Definition 3; the Justesen code of Lemma 2.1 is substituted
  by :func:`~repro.coding.justesen.make_justesen_code`, see DESIGN.md).
* :class:`~repro.coding.ldc_interfaces.LocallyDecodableCode` — non-adaptive
  LDCs (Definition 4; the KMRS code of Lemma 2.2 is substituted by
  :class:`~repro.coding.reed_muller.ReedMullerLDC`).
"""

from repro.coding.interfaces import BinaryCode, DecodingFailure
from repro.coding.ldc_interfaces import (
    LocalDecodingFailure,
    LocallyDecodableCode,
)
from repro.coding.linear import (
    LinearBlockCode,
    best_effort_linear_code,
    extended_hamming_8_4,
    search_linear_code,
)
from repro.coding.repetition import RepetitionCode
from repro.coding.reed_solomon import ReedSolomonBinaryCode, ReedSolomonCodec
from repro.coding.justesen import (
    ConcatenatedCode,
    PaddedCode,
    justesen_message_capacity,
    make_justesen_code,
)
from repro.coding.hadamard import HadamardLDC
from repro.coding.reed_muller import ReedMullerLDC

__all__ = [
    "BinaryCode",
    "DecodingFailure",
    "LocalDecodingFailure",
    "LocallyDecodableCode",
    "LinearBlockCode",
    "best_effort_linear_code",
    "extended_hamming_8_4",
    "search_linear_code",
    "RepetitionCode",
    "ReedSolomonBinaryCode",
    "ReedSolomonCodec",
    "ConcatenatedCode",
    "PaddedCode",
    "justesen_message_capacity",
    "make_justesen_code",
    "HadamardLDC",
    "ReedMullerLDC",
]
