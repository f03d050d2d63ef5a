"""Linear algebra over GF(2) with bit-vector rows.

The paper recovers BTB index/tag functions with an SMT solver (section
6.2).  Those functions are XOR-linear in the address bits, so the SMT
query reduces to exact linear algebra over GF(2): the wanted functions
are precisely the masks orthogonal to every observed collision
difference vector.  This module provides that machinery with plain
Python integers as bit vectors (bit *i* of a mask = coefficient of
address bit *i*).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def parity(x: int) -> int:
    """Parity (XOR-fold) of the set bits of *x*."""
    return x.bit_count() & 1


def popcount(x: int) -> int:
    return x.bit_count()


def apply_mask(mask: int, value: int) -> int:
    """Evaluate the linear function *mask* at *value*: parity(mask & value)."""
    return parity(mask & value)


def row_reduce(rows: Iterable[int]) -> list[int]:
    """Gaussian elimination; returns a reduced row-echelon basis.

    Rows are integers; pivot positions are the highest set bits.  Zero
    rows are dropped, so ``len(result)`` is the rank.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # Back-substitute so each pivot column appears in exactly one row.
    basis_sorted = sorted(basis, reverse=True)
    for i in range(len(basis_sorted)):
        pivot = 1 << (basis_sorted[i].bit_length() - 1)
        for j in range(len(basis_sorted)):
            if j != i and basis_sorted[j] & pivot:
                basis_sorted[j] ^= basis_sorted[i]
    return sorted((r for r in basis_sorted if r), reverse=True)


def rank(rows: Iterable[int]) -> int:
    return len(row_reduce(rows))


def in_span(vector: int, basis: Sequence[int]) -> bool:
    """True if *vector* is in the GF(2) span of *basis*."""
    for b in row_reduce(basis):
        if vector and b.bit_length() == vector.bit_length():
            vector ^= b
    return vector == 0


def orthogonal_complement(vectors: Iterable[int], width: int) -> list[int]:
    """Masks m (< 2**width) with parity(m & v) == 0 for every input vector.

    Returns a basis of the orthogonal complement of ``span(vectors)``
    inside GF(2)^width.
    """
    basis = row_reduce(vectors)
    # Solve the homogeneous system basis * m^T = 0 by Gaussian
    # elimination on the constraint matrix whose rows are the basis
    # vectors and whose unknowns are the `width` mask bits.
    pivots: dict[int, int] = {}  # column -> row index
    rows = list(basis)
    for i, row in enumerate(rows):
        pivot_col = row.bit_length() - 1
        pivots[pivot_col] = i
    free_cols = [c for c in range(width) if c not in pivots]
    complement: list[int] = []
    for free in free_cols:
        mask = 1 << free
        # Determine pivot-variable values forced by this free variable.
        # Process pivot columns from high to low so each row's pivot is
        # resolved after all higher terms are fixed.
        for col in sorted(pivots, reverse=False):
            row = rows[pivots[col]]
            # parity of the row restricted to currently set mask bits,
            # excluding the pivot column itself.
            forced = parity(row & mask & ~(1 << col))
            if forced:
                mask |= 1 << col
        complement.append(mask)
    # Sanity: every complement vector must annihilate every input basis row.
    for mask in complement:
        for row in basis:
            assert parity(mask & row) == 0, "complement construction bug"
    return complement


def span(basis: Sequence[int]) -> list[int]:
    """All 2**len(basis) elements of the span (len(basis) <= 24)."""
    if len(basis) > 24:
        raise ValueError("span too large to enumerate")
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def minimal_weight_basis(basis: Sequence[int], *,
                         max_weight: int | None = None) -> list[int]:
    """Re-express *basis* using minimum-Hamming-weight span elements.

    This mirrors the paper's SMT constraint ``sum(x_i) <= n``: gradually
    admitting heavier functions until the space is fully covered, which
    yields the sparse per-bit XOR functions of Figure 7.  Returns a list
    of the same rank, sorted by (weight, value).
    """
    if not basis:
        return []
    candidates = sorted((v for v in span(basis) if v),
                        key=lambda v: (popcount(v), v))
    chosen: list[int] = []
    for cand in candidates:
        if max_weight is not None and popcount(cand) > max_weight:
            break
        if not in_span(cand, chosen):
            chosen.append(cand)
            if len(chosen) == len(row_reduce(basis)):
                break
    return sorted(chosen, key=lambda v: (popcount(v), v))


def mask_to_bits(mask: int) -> list[int]:
    """Bit positions participating in the linear function *mask*."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def format_function(mask: int, name: str = "f") -> str:
    """Render a mask the way Figure 7 does: ``b47 ^ b35 ^ b23``."""
    bits = sorted(mask_to_bits(mask), reverse=True)
    return " ^ ".join(f"b{b}" for b in bits)
