"""Multivariate division and Buchberger's algorithm.

The basis routine follows the classic loop with the normal selection
strategy (smallest lcm first) and prunes pairs with the coprime
leading-term and chain criteria.  Pending pairs wait in a heap keyed by
the order key of their lcm, ties broken by index, so each pair's lcm and
key are computed once.  Output bases are reduced and monic, so for a
fixed order they are canonical for the ideal.

Three rules skip arithmetic that cannot change the basis (Cox-Little-
O'Shea, *Ideals, Varieties, and Algorithms*, 2.7-2.9).  Each leaves the
ideal, and so its unique reduced basis, as it is:

1. A monic input equal to a monomial times another monic input is dropped
   before any pair is formed, and of two equal inputs only the first is
   kept: it lies in the ideal of the one kept.  The test compares term
   maps and divides nothing.
2. An S-polynomial that cancels to zero is not divided: its normal form
   is zero.
3. The final interreduction divides an element only when one of its terms
   is divisible by another element's leading monomial: otherwise no
   division step applies and the element is its own normal form.

Order bookkeeping is done once per fact.  A polynomial's terms never
change after construction, so ``Polynomial.leading`` keeps its answer on
the polynomial and division and S-polynomials read their leads from it
instead of rescanning every basis element.  A division keys each monomial
once, when it first enters the running dividend, and S-polynomials are
built straight from the two term maps.  A normal form runs the division
loop without building quotients.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, sub

from .errors import NotDivisible
from .poly import GREVLEX, Polynomial, canonical_terms, coeff_div, monomial_divides, monomial_lcm


def _division(f: Polynomial, divisors, order, quotients):
    """The remainder of ``f`` on ordered division by the sequence
    ``divisors``.  The division loop of ``divide`` and ``normal_form``:
    each quotient step goes into ``quotients``, one term map per divisor,
    unless it is None, when only the remainder is wanted.

    The divisor list is scanned first-match at each step, so the quotients
    are a deterministic function of the list order.
    """
    leads = []
    for g in divisors:
        if g.variables != f.variables:
            raise ValueError(f"variable mismatch: {f.variables} vs {g.variables}")
        leads.append(g.leading(order) if g.terms else None)
    remainder: dict = {}
    work = dict(f.terms)
    # each monomial is keyed when it first enters ``work``
    keyf = order.key(f.variables)
    keys = {exps: keyf(exps) for exps in work}
    while work:
        exps = max(work, key=keys.__getitem__)
        coeff = work[exps]
        for j, lead in enumerate(leads):
            if lead is None or not monomial_divides(lead[0], exps):
                continue
            shift = tuple(map(sub, exps, lead[0]))
            scale = coeff_div(coeff, lead[1])
            if quotients is not None:
                # the leading monomial of ``work`` falls at every step, so
                # no shift repeats within one quotient
                quotients[j][shift] = scale
            for ge, gc in divisors[j].terms.items():
                te = tuple(map(add, ge, shift))
                val = work.get(te, 0) - scale * gc
                if not val:
                    work.pop(te, None)
                    continue
                if te not in keys:
                    keys[te] = keyf(te)
                if type(val) is Fraction and val.denominator == 1:
                    work[te] = val.numerator
                else:
                    work[te] = val
            break
        else:
            remainder[exps] = coeff
            del work[exps]
    # each step adds a new nonzero term to one quotient or to the remainder
    return Polynomial._from_clean(f.variables, remainder)


def divide(f: Polynomial, divisors, order=GREVLEX):
    """Divide ``f`` by an ordered list, returning (quotients, remainder)."""
    quotients = [dict() for _ in divisors]
    remainder = _division(f, divisors, order, quotients)
    return [Polynomial._from_clean(f.variables, q) for q in quotients], remainder


def exact_divide(f: Polynomial, divisor: Polynomial) -> Polynomial:
    """The quotient ``f / divisor``; raises NotDivisible unless it is exact."""
    (quotient,), remainder = divide(f, [divisor])
    if not remainder.is_zero():
        raise NotDivisible(f"{divisor.to_string()} does not divide {f.to_string()}")
    return quotient


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Remainder of ``f`` on division by ``basis``."""
    if not basis:
        return f
    return _division(f, list(basis), order, None)


def s_polynomial(f: Polynomial, g: Polynomial, order=GREVLEX) -> Polynomial:
    """``f / lt(f)`` minus ``g / lt(g)``, both multiplied up to the lcm of
    the leading monomials, built from the two term maps."""
    if f.variables != g.variables:
        raise ValueError(f"variable mismatch: {f.variables} vs {g.variables}")
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm = monomial_lcm(fe, ge)
    fs = tuple(map(sub, lcm, fe))
    scale = coeff_div(1, fc)
    # a shift is injective on monomials, so f's terms land on distinct keys
    out = {tuple(map(add, e, fs)): scale * c for e, c in f.terms.items()}
    gs = tuple(map(sub, lcm, ge))
    scale = coeff_div(1, gc)
    for e, c in g.terms.items():
        te = tuple(map(add, e, gs))
        val = out.get(te, 0) - scale * c
        if val:
            out[te] = val
        else:
            out.pop(te, None)
    return Polynomial._from_clean(f.variables, canonical_terms(out))


def _monomial_multiple(f: Polynomial, fe, g: Polynomial, ge) -> bool:
    """Whether monic ``f`` equals a monomial times monic ``g`` with as many
    terms, given their leading monomials ``fe`` and ``ge``: each term of
    ``g`` shifted by ``fe - ge`` is a term of ``f`` with its coefficient."""
    if not monomial_divides(ge, fe):
        return False
    shift = tuple(map(sub, fe, ge))
    terms = f.terms
    return all(terms.get(tuple(map(add, e, shift))) == c for e, c in g.terms.items())


def buchberger(generators, order=GREVLEX) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis of the ideal spanned by ``generators``.

    Three exact rules skip work: an input that is a monomial multiple of
    another input, or a repeat of an earlier one, is dropped, since the one
    kept generates it; an S-polynomial that cancels to zero is not divided,
    since its normal form is zero; and the interreduction divides only an
    element with a term that another element's leading monomial divides,
    since any other element is its own normal form.
    """
    monic = [g.monic(order) for g in generators if not g.is_zero()]
    if not monic:
        return ()
    variables = monic[0].variables
    for g in monic:
        if g.variables != variables:
            raise ValueError(f"variable mismatch: {variables} vs {g.variables}")
    keyf = order.key(variables)
    leads = [g.leading(order)[0] for g in monic]
    # a multiple is dropped whatever its position, an equal copy unless it
    # comes first; every dropped input is a multiple of one that is kept
    basis = []
    lead = []
    for j, g in enumerate(monic):
        size = len(g.terms)
        for i, h in enumerate(monic):
            if (
                i != j
                and len(h.terms) == size
                and (i < j or leads[i] != leads[j])
                and _monomial_multiple(g, leads[j], h, leads[i])
            ):
                break
        else:
            basis.append(g)
            lead.append(leads[j])

    # leading monomials never change, so the key computed when a pair is
    # formed stays valid; ``pairs`` holds the pairs still in the heap
    queue = []
    pairs = set()

    def add_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(lead[i], lead[j])
            heapq.heappush(queue, (keyf(lcm), (i, j), lcm))
            pairs.add((i, j))

    for j in range(1, len(basis)):
        add_pairs(j)

    while queue:
        _, (i, j), lcm = heapq.heappop(queue)
        pairs.discard((i, j))
        # coprime leading terms reduce to zero
        if tuple(map(add, lead[i], lead[j])) == lcm:
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # i and j were both already handled makes this pair redundant
        redundant = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead[k], lcm):
                continue
            ik = (min(i, k), max(i, k))
            jk = (min(j, k), max(j, k))
            if ik not in pairs and jk not in pairs:
                redundant = True
                break
        if redundant:
            continue
        spoly = s_polynomial(basis[i], basis[j], order)
        if spoly.is_zero():
            continue
        remainder = normal_form(spoly, basis, order)
        if remainder.is_zero():
            continue
        remainder = remainder.monic(order)
        basis.append(remainder)
        lead.append(remainder.leading(order)[0])
        add_pairs(len(basis) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    keep = []
    for i, g in enumerate(basis):
        li = lead[i]
        dominated = False
        for j in range(len(basis)):
            if j == i:
                continue
            if monomial_divides(lead[j], li):
                if lead[j] != li or j < i:
                    dominated = True
                    break
        if not dominated:
            keep.append(g)

    # interreduce to the unique reduced basis; no kept lead divides another,
    # and no lead divides a lower term of its own element, so only a term
    # that some kept lead divides is one that division would reduce
    kept_leads = [g.leading(order)[0] for g in keep]
    reduced = []
    for i, g in enumerate(keep):
        li = kept_leads[i]
        if any(exps != li and any(monomial_divides(l, exps) for l in kept_leads) for exps in g.terms):
            g = normal_form(g, keep[:i] + keep[i + 1 :], order).monic(order)
        reduced.append(g)
    reduced.sort(key=lambda g: keyf(g.leading(order)[0]), reverse=True)
    return tuple(reduced)
