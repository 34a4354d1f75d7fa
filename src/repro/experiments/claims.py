"""Quantitative in-text claims (C1, C2 in DESIGN.md).

* **C1** (§2): "for most mobile applications, the MA code is of a size
  ranging from 1KB to 8KB, and can be compressed before download" —
  measured over the three shipped applications' code artifacts and their
  travelling agent forms.
* **C2** (§4): "To store the PDAgent platform together with the kXML
  package within the wireless devices requires only 120KB storage space" —
  measured as the code bytes of the device-side modules of this
  reproduction (platform + XML codec + their direct dependencies), the
  closest analogue of the prototype's installed-bytes figure.  Comments,
  docstrings and blank lines are not code, so they are not counted: an
  edit to them leaves C2 where it was.
"""

from __future__ import annotations

import io
import os
import tokenize
from dataclasses import dataclass, field

from ..compressor import compress
from ..core.subscription import ServiceCode, code_to_xml
from ..mas import Itinerary, MobileAgent, serialize_agent
from ..xmlcodec import write_bytes
from .report import format_table

__all__ = [
    "CodeSizeRow",
    "FootprintResult",
    "code_bytes",
    "run_claim_code_sizes",
    "run_claim_footprint",
    "main",
]

#: Device-side module set standing in for "the PDAgent platform together
#: with the kXML package" (paths relative to the repro package root).
DEVICE_SIDE_MODULES = (
    "core/platform.py",
    "core/api.py",
    "core/dispatcher.py",
    "core/netmanager.py",
    "core/selection.py",
    "core/device_db.py",
    "core/packed_info.py",
    "core/security.py",
    "core/config.py",
    "core/errors.py",
    "core/ui.py",
    "xmlcodec/dom.py",
    "xmlcodec/parser.py",
    "xmlcodec/writer.py",
    "xmlcodec/escape.py",
    "xmlcodec/errors.py",
    "compressor/api.py",
    "compressor/lzss.py",
    "compressor/huffman.py",
    "compressor/null.py",
    "compressor/bitio.py",
    "rms/record_store.py",
    "rms/listener.py",
    "rms/errors.py",
    "crypto/md5.py",
    "crypto/rsa.py",
    "crypto/envelope.py",
    "crypto/keys.py",
    "crypto/errors.py",
)


@dataclass
class CodeSizeRow:
    """Per-application code-size measurements."""

    service: str
    code_size: int
    download_doc_bytes: int
    download_compressed_bytes: int
    agent_wire_bytes: int
    agent_wire_compressed: int

    @property
    def in_band(self) -> bool:
        """Within the paper's 1–8 KB claim."""
        return 1024 <= self.code_size <= 8192


@dataclass
class FootprintResult:
    """Code footprint of the device-side platform."""

    module_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.module_bytes.values())

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0


def _example_codes() -> list[ServiceCode]:
    from ..apps import (
        ebanking_service_code,
        foodsearch_service_code,
        newswire_service_code,
    )

    return [
        ebanking_service_code(),
        foodsearch_service_code(),
        newswire_service_code(),
    ]


def run_claim_code_sizes() -> list[CodeSizeRow]:
    """Measure C1 over the shipped applications."""
    from ..apps import EBankingAgent, FoodSearchAgent, NewswireAgent

    classes: dict[str, type[MobileAgent]] = {
        "EBankingAgent": EBankingAgent,
        "FoodSearchAgent": FoodSearchAgent,
        "NewswireAgent": NewswireAgent,
    }
    rows = []
    for code in _example_codes():
        doc = write_bytes(code_to_xml(code, "mac-claim"))
        cls = classes[code.agent_class]
        agent = cls(
            agent_id="claim/agent-1",
            owner="claim",
            home="gw-0",
            itinerary=Itinerary(origin="gw-0"),
            state={"params": {}, "results": []},
        )
        wire = serialize_agent(agent)
        rows.append(
            CodeSizeRow(
                service=code.service,
                code_size=code.code_size,
                download_doc_bytes=len(doc),
                download_compressed_bytes=len(compress(doc, "lzss")),
                agent_wire_bytes=len(wire),
                agent_wire_compressed=len(compress(wire, "lzss")),
            )
        )
    return rows


_STATEMENT_START = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)


def code_bytes(source: str) -> int:
    """UTF-8 bytes of ``source`` without comments, docstrings and blank lines.

    A docstring is any string literal that is a statement of its own.
    Trailing whitespace is not counted either, so the result moves only
    when code moves.
    """
    lines = io.StringIO(source).readlines()
    significant: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
        elif tok.type != tokenize.NL:
            significant.append(tok)
    for prev, tok, nxt in zip([None, *significant], significant, significant[1:]):
        if (
            tok.type == tokenize.STRING
            and (prev is None or prev.type in _STATEMENT_START)
            and nxt.type == tokenize.NEWLINE
        ):
            first, last = tok.start[0], tok.end[0]
            lines[first - 1 : last] = [""] * (last - first + 1)
    kept = (line.rstrip() for line in lines)
    return sum(len(line.encode("utf-8")) + 1 for line in kept if line)


def run_claim_footprint() -> FootprintResult:
    """Measure C2: code bytes of the device-side source shipped to the handheld."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = FootprintResult()
    for rel in DEVICE_SIDE_MODULES:
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            result.module_bytes[rel] = code_bytes(fh.read())
    return result


def main() -> tuple[list[CodeSizeRow], FootprintResult]:
    rows = run_claim_code_sizes()
    print(
        format_table(
            ["service", "code B", "doc B", "doc lzss B", "agent B", "agent lzss B", "1-8KB?"],
            [
                [
                    r.service,
                    r.code_size,
                    r.download_doc_bytes,
                    r.download_compressed_bytes,
                    r.agent_wire_bytes,
                    r.agent_wire_compressed,
                    "yes" if r.in_band else "no",
                ]
                for r in rows
            ],
            title="Claim C1: MA code sizes (paper: 1-8 KB, compressible)",
        )
    )
    footprint = run_claim_footprint()
    print()
    print(
        f"Claim C2: device-side platform footprint = {footprint.total_kb:.1f} KB "
        f"across {len(footprint.module_bytes)} modules (paper prototype: ~120 KB)"
    )
    return rows, footprint


if __name__ == "__main__":  # pragma: no cover
    main()
