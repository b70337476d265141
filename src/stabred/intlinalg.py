"""Integer kernels and Hermite forms for small weight matrices.

The integer kernel answers every exact question about weights: a set of
weight vectors is independent when its kernel has the complementary rank,
and the variables a kernel fixes are those whose weights lie in the
rational span of the set.
"""

from __future__ import annotations


def integer_kernel(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {h in Z^width : row . h = 0 for every row}, saturated and in
    Hermite normal form so equal kernels produce equal tuples."""
    rows = [list(map(int, row)) for row in rows]
    n = width
    # column reduction by unimodular moves; U tracks them
    a = [row[:] for row in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U
    col = 0
    for r in range(len(a)):
        if col >= n:
            break
        # clear row r across columns col..n-1 down to a single entry
        while True:
            nonzero = [j for j in range(col, n) if a[r][j]]
            if not nonzero:
                break
            j0 = min(nonzero, key=lambda j: (abs(a[r][j]), j))
            if j0 != col:
                for row in a:
                    row[col], row[j0] = row[j0], row[col]
                for row in u:
                    row[col], row[j0] = row[j0], row[col]
            done = True
            for j in range(col + 1, n):
                if a[r][j]:
                    q = a[r][j] // a[r][col]
                    for row in a:
                        row[j] -= q * row[col]
                    for row in u:
                        row[j] -= q * row[col]
                    if a[r][j]:
                        done = False
            if done:
                break
        if a[r][col]:
            col += 1
    kernel = []
    for j in range(col, n):
        if all(a[r][j] == 0 for r in range(len(a))):
            kernel.append(tuple(u[i][j] for i in range(n)))
    return hermite_rows(kernel)


def hermite_rows(vectors) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the lattice the vectors span."""
    rows = [list(map(int, v)) for v in vectors if any(v)]
    if not rows:
        return ()
    width = len(rows[0])
    out = []
    col = 0
    while rows and col < width:
        rows = [r for r in rows if any(r)]
        candidates = [r for r in rows if r[col]]
        if not candidates:
            col += 1
            continue
        while True:
            candidates = [r for r in rows if r[col]]
            if len(candidates) <= 1:
                break
            candidates.sort(key=lambda r: abs(r[col]))
            base = candidates[0]
            for r in candidates[1:]:
                q = r[col] // base[col]
                for i in range(width):
                    r[i] -= q * base[i]
        pivot_rows = [r for r in rows if r[col]]
        if pivot_rows:
            pivot = pivot_rows[0]
            rows.remove(pivot)
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            out.append(pivot)
        col += 1
    # reduce entries above each pivot
    for i in range(len(out) - 1, -1, -1):
        pcol = next(j for j in range(width) if out[i][j])
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                out[k] = [a - q * b for a, b in zip(out[k], out[i])]
    return tuple(tuple(r) for r in out)
