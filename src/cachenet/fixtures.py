"""Canonical plain-text renderings of caches, messages, and schedules.

The fixture grammar is comma-separated plain text with bracket-aware
splitting (a comma inside ``[...]`` or ``{...}`` does not separate fields):

- piece of a coded chunk:   ``f[n|2|{1,3}]``  = file | chunk | rank subset,
  with an optional trailing ``|en`` / ``|cloud`` part tag when files are
  split between EN and cloud storage; the file token ``n`` means "every
  file" (used for cache tables, which are file-independent).
- plain subfile:            ``W[4|{2,5}]``    = file | caching subset, with
  an optional part tag and an optional trailing ``|{...}`` null-set
  annotation, e.g. ``W[4|{2,5}|{1,3,6}]``.
- multicast message id:     ``X,3,{1,2}``     — three fields: marker, EN,
  rank subset.
- channel coefficient:      ``h[7,5]``        = receiving UE, EN.
- row keys:                 ``UE,4,cache,...`` / ``EN,2,...`` / ``UE,4,row,2,...``

Generators below emit the golden scenarios used by the test suite and the
``fixtures`` CLI subcommand; output is deterministic byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .mdscode import random_library
from .mdsia import (
    AlignmentPlan,
    InterferenceMatrix,
    MessageId,
    MulticastMessage,
    PieceLabel,
    PlacementState,
    mdsia_deliver,
    mdsia_place,
)
from .soft_transfer import SoftPlacement, SoftSubfileLabel, soft_missing, soft_place
from .topology import build_topology

# ---------------------------------------------------------------------------
# label rendering / parsing
# ---------------------------------------------------------------------------


def render_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def parse_set(text: str) -> tuple[int, ...]:
    body = text.strip()
    assert body.startswith("{") and body.endswith("}"), f"not a set: {text!r}"
    inner = body[1:-1]
    return tuple(int(v) for v in inner.split(",")) if inner else ()


def render_piece(label: PieceLabel, generic_file: bool = False) -> str:
    file_token = "n" if generic_file else str(label.file)
    parts = [file_token, str(label.chunk), render_set(label.subset)]
    if label.part is not None:
        parts.append(label.part)
    return "f[" + "|".join(parts) + "]"


def parse_piece(text: str) -> PieceLabel:
    assert text.startswith("f[") and text.endswith("]"), f"not a piece: {text!r}"
    tokens = text[2:-1].split("|")
    file_id = 0 if tokens[0] == "n" else int(tokens[0])
    part = tokens[3] if len(tokens) > 3 else None
    return PieceLabel(file=file_id, chunk=int(tokens[1]), subset=parse_set(tokens[2]), part=part)


def render_subfile(label: SoftSubfileLabel, generic_file: bool = False, with_part: bool = False) -> str:
    file_token = "n" if generic_file else str(label.file)
    parts = [file_token, render_set(label.subset)]
    if with_part:
        parts.append(label.part)
    if label.pi is not None:
        parts.append(render_set(label.pi))
    return "W[" + "|".join(parts) + "]"


def parse_subfile(text: str, part: str = "cloud") -> SoftSubfileLabel:
    assert text.startswith("W[") and text.endswith("]"), f"not a subfile: {text!r}"
    tokens = text[2:-1].split("|")
    file_id = 0 if tokens[0] == "n" else int(tokens[0])
    subset = parse_set(tokens[1])
    pi = None
    for tok in tokens[2:]:
        if tok.startswith("{"):
            pi = parse_set(tok)
        else:
            part = tok
    return SoftSubfileLabel(file=file_id, subset=subset, part=part, pi=pi)


def render_message_id(mid: MessageId) -> list[str]:
    """Message ids span three fields, e.g. ['X', '1', '{1,2}']."""
    en, subset = mid
    return ["X", str(en), render_set(subset)]


def _message_cells(ids) -> list[str]:
    return [cell for mid in ids for cell in render_message_id(mid)]


def render_coef(coef: tuple[int, int]) -> str:
    ue, en = coef
    return f"h[{ue},{en}]"


def split_fields(line: str) -> list[str]:
    """Split one fixture line on commas outside any bracket pair."""
    fields, depth, cur = [], 0, []
    for ch in line:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            fields.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    fields.append("".join(cur))
    return fields


def parse_message_fields(fields: list[str]) -> list[MessageId]:
    """Collect every X,<en>,<set> triple from a split fixture line."""
    ids = []
    i = 0
    while i < len(fields):
        if fields[i] == "X":
            ids.append((int(fields[i + 1]), parse_set(fields[i + 2])))
            i += 3
        else:
            i += 1
    return ids


# ---------------------------------------------------------------------------
# tables (shared by the golden files and the CLI listings)
# ---------------------------------------------------------------------------


def piece_cache_lines(placement: PlacementState) -> Iterator[str]:
    """``UE,k,cache,...``: the coded pieces each UE holds of every file."""
    for ue in range(1, placement.topology.k + 1):
        labels = sorted(placement.ue_caches[ue].first_file(), key=lambda lb: (lb.chunk, lb.subset, lb.part or ""))
        cells = ",".join(render_piece(lb, generic_file=True) for lb in labels)
        yield f"UE,{ue},cache,{cells}"


def subfile_cache_lines(placement: SoftPlacement) -> Iterator[str]:
    """``UE,k,cache,...``: the subfiles each UE holds of every file."""
    for ue in range(1, placement.topology.k + 1):
        labels = [lb for lb in placement.ue_cache_labels(ue) if lb.file == 1]
        cells = ",".join(render_subfile(lb, generic_file=True) for lb in labels)
        yield f"UE,{ue},cache,{cells}"


def multicast_lines(messages: list[MulticastMessage]) -> Iterator[str]:
    """``EN,i,X,i,{...},...``: each multicast's id and members, by EN and subset."""
    for msg in sorted(messages, key=lambda m: (m.en, m.subset)):
        cells = [f"EN,{msg.en}", *render_message_id(msg.id)]
        cells += [render_piece(lb) for _, lb in msg.members]
        yield ",".join(cells)


def interference_lines(mats: dict[int, InterferenceMatrix]) -> Iterator[str]:
    """``UE,k,row,j,...``: the messages of each row of each UE's interference matrix."""
    for ue, mat in sorted(mats.items()):
        for j, row in enumerate(mat.rows(), start=1):
            yield ",".join([f"UE,{ue},row,{j}", *_message_cells(row)])


def direction_rows(plan: AlignmentPlan) -> Iterator[tuple[str, str, str]]:
    """Per transmit direction: its coefficient ids (A), messages (B) and owners (C)."""
    for row in plan.rows:
        yield ",".join(map(render_coef, row.a)), ",".join(_message_cells(row.b)), ",".join(map(str, row.c))


# ---------------------------------------------------------------------------
# golden scenario: 5 ENs, pair connectivity, one-rank UE caches
# ---------------------------------------------------------------------------


def coded_caching_fixtures() -> dict[str, str]:
    """Cache/message/interference/direction tables for the 5-EN pair network.

    Geometry: 5 ENs, connectivity 2 (10 UEs), UE cache fraction 1/4
    (one rank subset per serving EN), no EN caches, identity demand over a
    10-file library. Label content is payload-independent.
    """
    t = build_topology(5, 2)
    lib = random_library(n_files=10, file_size_bits=64, seed=0)
    placement = mdsia_place(lib, t, Fraction(1, 4), Fraction(0))
    delivery = mdsia_deliver(list(range(1, 11)), placement, t)
    a_lines, b_lines, c_lines = zip(*direction_rows(delivery.plan))
    return {
        "ue_caches.csv": _text(piece_cache_lines(placement)),
        "multicasts.csv": _text(multicast_lines(delivery.cloud)),
        "interference.csv": _text(interference_lines(delivery.mats)),
        "directions_a.csv": _text(a_lines),
        "directions_b.csv": _text(b_lines),
        "directions_c.csv": _text(c_lines),
    }


# ---------------------------------------------------------------------------
# golden scenario: 4 ENs, pair connectivity, two-UE subset caches
# ---------------------------------------------------------------------------


def subset_caching_fixtures() -> dict[str, str]:
    """Cache and missing-subfile tables for the 4-EN pair network.

    Geometry: 4 ENs, connectivity 2 (6 UEs), UE cache fraction 1/3
    (subsets of size 2), no EN caches, identity demand over a 6-file
    library. Emitted both bare and with the null-set annotation.
    """
    t = build_topology(4, 2)
    lib = random_library(n_files=6, file_size_bits=15 * 8, seed=0)
    placement = soft_place(lib, t, Fraction(1, 3), Fraction(0))
    demand = list(range(1, t.k + 1))
    missing = soft_missing(demand, placement)

    missing_lines, nulled_lines = [], []
    k = t.k
    for ue in range(1, k + 1):
        plain, nulled = [], []
        for lb in missing[ue]:
            plain.append(render_subfile(lb))
            pi = tuple(u for u in range(1, k + 1) if u != ue and u not in lb.subset)
            nulled.append(render_subfile(SoftSubfileLabel(lb.file, lb.subset, lb.part, pi=pi)))
        missing_lines.append(f"UE,{ue},missing," + ",".join(plain))
        nulled_lines.append(f"UE,{ue},missing," + ",".join(nulled))

    return {
        "ue_subsets.csv": _text(subfile_cache_lines(placement)),
        "missing.csv": _text(missing_lines),
        "missing_nulled.csv": _text(nulled_lines),
    }


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def all_fixtures() -> dict[str, str]:
    out = coded_caching_fixtures()
    out.update(subset_caching_fixtures())
    return out


def write_fixtures(outdir: Path) -> list[Path]:
    """Write every fixture file under ``outdir``; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    data = all_fixtures()
    paths = []
    for name in sorted(data):
        path = outdir / name
        path.write_text(data[name], encoding="ascii")
        paths.append(path)
    return paths
