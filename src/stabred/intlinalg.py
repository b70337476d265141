"""Hermite forms and integer kernels for small weight matrices.

The row Hermite form answers every exact question about weights: its
length is the rank of the vectors, so a set of weight vectors is
independent when the form keeps them all, and the integer kernel is read
off the form of an augmented lattice.  The form is unique, so equal
lattices produce equal tuples at every torus rank (Cohen, *A Course in
Computational Algebraic Number Theory*, 1993, section 2.4).
"""

from __future__ import annotations


def hermite_rows(vectors) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice the vectors span.

    Rows are in echelon form with positive pivots, and every entry above a
    pivot lies in [0, pivot).  Each pivot reduces the rows above it as soon
    as it is placed; it is zero in every earlier column, so the earlier
    pivots and their reductions stay as they were.
    """
    rows = [list(map(int, v)) for v in vectors]
    out: list[list[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        # Euclid across the rows still live at this column
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            base = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not base:
                    q = r[col] // base[col]
                    r[:] = [a - q * b for a, b in zip(r, base)]
            live = [r for r in live if r[col]]
        if not live:
            continue
        pivot = live[0]
        rows.remove(pivot)
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        for k, r in enumerate(out):
            q = r[col] // pivot[col]
            if q:
                out[k] = [a - q * b for a, b in zip(r, pivot)]
        out.append(pivot)
    return tuple(tuple(r) for r in out)


def integer_kernel(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {h in Z^width : row . h = 0 for every row}, saturated and in
    Hermite normal form so equal kernels produce equal tuples.

    The vectors (A h, h) form a lattice with basis (A e_j, e_j).  Its
    Hermite rows that vanish on the first ``len(rows)`` entries span the
    vectors with A h = 0, and their tails are the kernel's Hermite form.
    """
    rows = [list(map(int, row)) for row in rows]
    lattice = [[row[j] for row in rows] + [int(i == j) for i in range(width)] for j in range(width)]
    return tuple(r[len(rows):] for r in hermite_rows(lattice) if not any(r[: len(rows)]))
