"""Control-flow graphs over disassembled basic blocks."""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Image
from .disasm import BasicBlock, Disassembler


@dataclass
class CFG:
    """Blocks keyed by start address, in discovery order.

    ``edges[start]`` maps each successor's start address to its edge
    label (fallthrough / taken / jump / call), in
    :meth:`BasicBlock.successors` order.  A target reached twice (a
    ``jcc`` to its own fallthrough) is one edge carrying the last label.
    """

    blocks: dict[int, BasicBlock]
    edges: dict[int, dict[int, str]]


def build_cfg(image: Image, entry: int, *, max_blocks: int = 512) -> CFG:
    """CFG reachable from *entry*; edges leaving the discovered blocks
    (calls out of the image, targets past *max_blocks*) are dropped."""
    disasm = Disassembler(image)
    blocks = disasm.discover_blocks(entry, max_blocks=max_blocks)
    edges: dict[int, dict[int, str]] = {}
    for start, block in blocks.items():
        out = edges[start] = {}
        for target, label in block.successors():
            if target in blocks:
                out[target] = label
    return CFG(blocks=blocks, edges=edges)


def conditional_blocks(graph: CFG) -> list[BasicBlock]:
    """Blocks ending in a conditional branch (potential v1 sources)."""
    out = []
    for block in graph.blocks.values():
        term = block.terminator
        if term is not None and term.kind.value == "jcc":
            out.append(block)
    return out


def paths_after(graph: CFG, block: BasicBlock, *,
                max_instructions: int = 24) -> list[list]:
    """Instruction sequences along each CFG path leaving *block*,
    bounded by *max_instructions* (the speculation window depth)."""
    paths = []
    blocks = graph.blocks
    edges = graph.edges

    def walk(node: int, acc: list, budget: int) -> None:
        blk = blocks.get(node)
        if blk is None or budget <= 0:
            paths.append(acc)
            return
        instrs = blk.instructions[:budget]
        acc = acc + instrs
        budget -= len(instrs)
        succs = edges[node]
        if not succs or budget <= 0:
            paths.append(acc)
            return
        for succ in succs:
            walk(succ, acc, budget)

    for succ in edges.get(block.start, ()):
        walk(succ, [], max_instructions)
    return paths
