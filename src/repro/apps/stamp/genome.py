"""STAMP genome: gene sequencing by segment deduplication and overlap
matching.

A genome string is sampled into overlapping fixed-length segments (with
duplicates). Phase 1 transactions deduplicate segments into a shared hash
set and index each unique segment by its (length-1)-prefix; phase 2
transactions link each unique segment to its successor (the segment whose
prefix equals this one's suffix), rebuilding the chain. The checker
traverses the chain and must recover the original genome exactly.

Phases are sequenced with root-domain timestamps (STAMP uses barriers).
Conflicts: hash-set insertions (phase 1) and next-pointer writes (phase 2)
— all short transactions, so genome scales once hints localize the hash
buckets (Fig. 17, +Hints helps genome).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List

from ...errors import AppError
from ...vt import Ordering
from .common import require_stamp_variant
from ..common import splitmix


@dataclass
class GenomeInput:
    genome: str
    segment_len: int
    segments: List[str]          # occurrences, shuffled, with duplicates


def make_input(genome_len: int = 160, segment_len: int = 12,
               duplication: float = 1.5, seed: int = 9) -> GenomeInput:
    rng = random.Random(seed)
    genome = "".join(rng.choice("ACGT") for _ in range(genome_len))
    positions = list(range(genome_len - segment_len + 1))
    segments = [genome[p:p + segment_len] for p in positions]
    # Regenerate until all (L-1)-grams are unique so the chain is exact.
    while len({s[:-1] for s in segments}) != len(segments) or \
            len({s[1:] for s in segments}) != len(segments):
        genome = "".join(rng.choice("ACGT") for _ in range(genome_len))
        segments = [genome[p:p + segment_len] for p in positions]
    occurrences = list(segments)
    extra = int(len(segments) * (duplication - 1.0))
    occurrences += [rng.choice(segments) for _ in range(extra)]
    rng.shuffle(occurrences)
    return GenomeInput(genome, segment_len, occurrences)


def build(host, inp: GenomeInput, variant: str = "fractal") -> Dict:
    require_stamp_variant(variant)
    n_occ = len(inp.segments)
    uniq = host.dict("gen.uniq", capacity=n_occ + 1)
    by_prefix = host.dict("gen.by_prefix", capacity=n_occ + 1)
    nxt = host.dict("gen.next", capacity=n_occ + 1)

    def dedup(ctx, i):
        seg = inp.segments[i]
        if uniq.put_if_absent(ctx, seg, 1):
            by_prefix.put(ctx, seg[:-1], seg)
        ctx.compute(15)

    def link(ctx, i):
        seg = inp.segments[i]
        succ = by_prefix.get(ctx, seg[1:])
        if succ is not None:
            nxt.put(ctx, seg, succ)
        ctx.compute(10)

    if variant == "tm":
        # software work queue per phase: a cursor cell serializes claims
        cursor = host.array("gen.cursor", 16)

        def worker(ctx, phase):
            slot = phase * 8
            i = cursor.get(ctx, slot)
            if i >= n_occ:
                return
            cursor.set(ctx, slot, i + 1)
            (dedup if phase == 0 else link)(ctx, i)
            ctx.enqueue(worker, phase, ts=ctx.timestamp, label="worker")

        for w in range(16):
            host.enqueue_root(worker, 0, ts=0, label="worker")
            host.enqueue_root(worker, 1, ts=1, label="worker")
    else:
        for i in range(n_occ):
            # crc32, not hash(): str hashing is salted per process
            # (PYTHONHASHSEED), which would re-randomize the hint-to-tile
            # mapping — and with it makespans — on every run
            hint = splitmix(zlib.crc32(inp.segments[i].encode())) & 0xFFFF
            host.enqueue_root(dedup, i, ts=0, hint=hint, label="dedup")
            host.enqueue_root(link, i, ts=1, hint=hint, label="link")
    return {"uniq": uniq, "next": nxt, "input": inp}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_32


def check(handles: Dict, inp: GenomeInput) -> None:
    uniq = {k for k, v in handles["uniq"].items_nonspec()}
    if uniq != set(inp.segments):
        raise AppError("deduplicated set mismatch")
    nxt = dict(handles["next"].items_nonspec())
    # traverse from the unique head (the segment nobody points to)
    pointed = set(nxt.values())
    heads = [s for s in uniq if s not in pointed]
    if len(heads) != 1:
        raise AppError(f"expected 1 chain head, found {len(heads)}")
    s = heads[0]
    out = [s]
    seen = {s}
    while s in nxt:
        s = nxt[s]
        if s in seen:
            raise AppError("cycle in segment chain")
        seen.add(s)
        out.append(s)
    rebuilt = out[0] + "".join(seg[-1] for seg in out[1:])
    if rebuilt != inp.genome:
        raise AppError("reconstructed genome differs from the original")
