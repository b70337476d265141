import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import blowup, cdga, groebner, ideal, reduce
from stabred.cli import main
from stabred.groebner import buchberger, divide, normal_form, s_polynomial
from stabred.poly import GREVLEX, LEX, ElimOrder, MonomialOrder, Polynomial

from helpers import poly, rank2_tree_scene_file, strings
from test_ideal_properties import small_polynomials
from test_poly import random_poly

V = ("x", "y")


def test_division_follows_first_match():
    q, r = divide(poly("x^2*y", V), (poly("x", V), poly("y", V)))
    assert strings(q) == ("x*y", "0")
    assert r.is_zero()


def test_division_remainder_is_irreducible():
    divisors = (poly("x^2 - 1", V), poly("x*y - 1", V))
    q, r = divide(poly("x^3 + y", V), divisors, GREVLEX)
    # check the division identity, then that nothing in r is divisible
    recombined = sum((a * b for a, b in zip(q, divisors)), r)
    assert recombined == poly("x^3 + y", V)
    lead_exps = [d.leading(GREVLEX)[0] for d in divisors]
    for exps in r.terms:
        assert not any(all(e >= l for e, l in zip(exps, lead)) for lead in lead_exps)


def test_s_polynomial():
    s = s_polynomial(poly("x^2 - 1", V), poly("x*y - 1", V), GREVLEX)
    assert s.to_string() == "x - y"


def test_buchberger_reduced_basis_frozen():
    gb = buchberger((poly("x^2 - 1", V), poly("x*y - 1", V)), GREVLEX)
    assert strings(gb) == ("y^2 - 1", "x - y")


def test_buchberger_output_is_monic_and_self_reduced():
    rng = random.Random(23)
    for _ in range(25):
        gens = tuple(random_poly(rng) for _ in range(rng.randint(1, 3)))
        gb = buchberger(gens, GREVLEX)
        for i, g in enumerate(gb):
            assert g.leading(GREVLEX)[1] == 1
            others = gb[:i] + gb[i + 1:]
            if others:
                assert normal_form(g, others, GREVLEX) == g


def test_buchberger_permutation_invariance():
    rng = random.Random(31)
    for _ in range(20):
        gens = [random_poly(rng) for _ in range(3)]
        for order in (LEX, GREVLEX):
            reference = buchberger(tuple(gens), order)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert buchberger(tuple(shuffled), order) == reference


def test_buchberger_is_idempotent():
    gens = (poly("x^2 - 1", V), poly("x*y - 1", V))
    gb = buchberger(gens, GREVLEX)
    assert buchberger(gb, GREVLEX) == gb


def test_normal_form_properties():
    basis = buchberger((poly("x^2 - 1", V), poly("x*y - 1", V)), GREVLEX)
    rng = random.Random(47)
    for _ in range(30):
        f = random_poly(rng)
        nf = normal_form(f, basis, GREVLEX)
        assert normal_form(nf, basis, GREVLEX) == nf
        shifted = f + basis[0] * random_poly(rng)
        assert normal_form(shifted, basis, GREVLEX) == nf


def test_normal_form_of_member_is_zero():
    basis = buchberger((poly("x^2 - 1", V), poly("x*y - 1", V)), GREVLEX)
    member = poly("x^2 - 1", V) * poly("y^3", V) + poly("x*y - 1", V) * poly("x - 2", V)
    assert normal_form(member, basis, GREVLEX).is_zero()


def test_buchberger_refuses_generators_of_two_rings():
    # x in the ring (x, y) and x in the ring (x, z) have equal term maps,
    # and x*z in (x, z) has x's term map shifted by a monomial; neither is
    # a repeat or a multiple of x in (x, y).  The pair 1, x forms no
    # S-polynomial and divides nothing, since the leads are coprime.
    cases = (
        (poly("x", ("x", "y")), poly("x", ("x", "z"))),
        (poly("x", ("x", "y")), poly("x*z", ("x", "z"))),
        (poly("1", ("x", "y")), poly("x", ("x", "z"))),
    )
    for first, second in cases:
        for gens in ((first, second), (second, first)):
            with pytest.raises(ValueError, match="variable mismatch"):
                buchberger(gens, GREVLEX)


@st.composite
def generators_and_multiples(draw):
    """Nonzero polynomials of degree at most 2 in 2 or 3 variables, and
    the same list with monomial multiples of them, repeats included,
    inserted at any positions."""
    ring = ("a", "b", "c")[: draw(st.integers(2, 3))]
    gens = draw(st.lists(small_polynomials(ring, 1), min_size=1, max_size=3))
    padded = list(gens)
    for _ in range(draw(st.integers(1, 4))):
        source = draw(st.sampled_from(gens))
        shift = draw(st.tuples(*(st.integers(0, 1) for _ in ring)))
        scale = draw(st.sampled_from((1, -1, 2)))
        padded.insert(draw(st.integers(0, len(padded))), source * Polynomial.monomial(ring, shift, scale))
    return ring, tuple(gens), tuple(padded)


@settings(max_examples=150, deadline=None)
@given(generators_and_multiples())
def test_monomial_multiples_leave_the_basis_unchanged(case):
    ring, gens, padded = case
    for order in (GREVLEX, LEX, ElimOrder(ring[:1])):
        assert buchberger(padded, order) == buchberger(gens, order)


# Fixed ideals with the (lead_i, lead_j) sequence of the S-pairs that
# ``buchberger`` reduces, and so their count.  The normal selection
# strategy (smallest lcm, ties by index) fixes the sequence, so any pair
# queue must reproduce it; it was recorded with a linear scan for the
# smallest pending pair.  The ElimOrder case is a stratum saturation met
# while reducing the critical locus of a*b*c*d + a*b over the weights
# a (1,0), b (-1,0), c (0,1), d (0,-1).  Two of its inputs are monomial
# multiples of others, u_u_b*xi^2*u_d + u_u_b of xi^2*u_d + 1 and
# xi0^2*u_u_b*xi^2*u_d of xi0^2*u_u_b*xi^2, so they form no pair: 11
# pairs, against 13 when every input formed pairs.  Four of those 11 pair
# two monomials, whose S-polynomial is zero, so none is formed: 7 remain,
# in the same order.
S_PAIR_CASES = {
    "grevlex": (
        ("x", "y", "z"),
        ("x^2*y - z^3", "x*y^2 - y*z^2", "x^3 - y*z + 2"),
        GREVLEX,
        [
            ("x^2*y", "x*y^2"), ("x^2*y", "x^3"), ("x*y*z^2", "x*z^3"),
            ("x*y^2", "x*y*z^2"), ("x^2*y", "x*y*z^2"), ("y*z^4", "z^5"),
            ("x*z^3", "z^5"), ("y*z^4", "y^2*z^3"), ("x*y*z^2", "y*z^4"),
            ("y^2*z^3", "y^3*z^2"), ("y^2*z^3", "y^2*z^2"), ("y^3*z^2", "y^2*z^2"),
            ("y^2*z^2", "y^2*z"), ("x*y^2", "y^2*z"), ("y^4*z", "y^2*z"),
            ("y^2*z", "y^3"), ("x*y^2", "y^3"), ("x^3", "x*z^3"),
        ],
    ),
    "lex": (
        ("x", "y", "z"),
        ("x^2 + y^2 + z^2 - 1", "x*y - z", "x - y^2 + z"),
        LEX,
        [
            ("x*y", "x"), ("x*y", "y^3"), ("x^2", "x"), ("y^3", "y^2*z"),
            ("y^2*z", "y^2"), ("y^2*z", "y*z^3"), ("y*z^3", "y*z^2"),
            ("y*z^2", "y*z"), ("y*z", "y"), ("y*z^3", "z^7"), ("y^2", "y"),
            ("y^2*z", "y*z"), ("y^3", "y^2"), ("z^7", "z^6"), ("y*z^3", "z^6"),
            ("x*y", "y"),
        ],
    ),
    "elim": (
        ("xi0", "u_u_b", "xi", "u_d", "_s"),
        (
            "u_u_b*xi^2*u_d + u_u_b", "xi^2*u_d + 1", "xi0^2*u_u_b*xi^2*u_d",
            "xi0^2*u_u_b*xi^2", "xi0*u_u_b^2*xi*u_d*_s - 1",
        ),
        ElimOrder(("_s",)),
        [
            ("xi^2*u_d", "xi0^2*u_u_b*xi^2"), ("xi^2*u_d", "xi0*u_u_b^2*xi*u_d*_s"),
            ("xi0^2*u_u_b", "xi0*u_u_b^2*_s"), ("xi^2*u_d", "xi0*xi"),
            ("xi0*u_u_b^2*_s", "xi0"), ("xi^2*u_d", "xi"),
            ("xi0*u_u_b^2*xi*u_d*_s", "xi0*u_u_b^2*_s"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(S_PAIR_CASES))
def test_s_pair_sequence_is_pinned(case, monkeypatch):
    variables, texts, order, expected = S_PAIR_CASES[case]
    seen = []

    def recording(f, g, pair_order=GREVLEX):
        seen.append(tuple(
            Polynomial.monomial(variables, p.leading(pair_order)[0]).to_string() for p in (f, g)
        ))
        return s_polynomial(f, g, pair_order)

    monkeypatch.setattr(groebner, "s_polynomial", recording)
    groebner.buchberger(tuple(poly(t, variables) for t in texts), order)
    assert seen == expected


def counted_calls(counts, name, fn):
    """``fn``, counting its calls under ``name`` in ``counts``, and the zero
    results of ``normal_form`` under "zero"."""

    def counted(*args, **kwargs):
        counts[name] += 1
        result = fn(*args, **kwargs)
        if name == "normal_form":
            counts["zero"] += result.is_zero()
        return result

    return counted


def test_a_rank2_reduce_does_the_same_work_with_fewer_order_keys(tmp_path, monkeypatch, capsys):
    # One ``reduce`` of the critical locus of a*b*c*d + a*b, the rank2-trees
    # scene where Buchberger weighs most.  The work is pinned exactly.  The
    # stratum tests saturate each node's reduced grevlex truncation basis,
    # restricted to the flat, rather than its raw differentials: it is the
    # same ideal, so every Buchberger call still runs, but the smaller
    # interreduced input forms 28 fewer S-polynomials (97 before) and makes
    # 22 fewer zero reductions (72 before).  In a Kirwan chart many inputs
    # are monomial multiples of others; dropping them before any pair is
    # formed leaves 49 S-polynomials (69 before), and forming none for a
    # pair of two monomials, which is always zero, leaves 29.  An
    # S-polynomial that cancels to zero is not divided, and the
    # interreduction divides only an element that a lead can reduce, which
    # here is none: 24 normal forms with 5 zero remainders (126 and 50
    # before).  The kernel that
    # rescanned every lead and every remaining term with the order key took
    # 2409 key evaluations; finding each lead once and keying each monomial
    # once per division took 954, the smaller saturation inputs 766, and
    # skipping the divisions that cannot change the basis 518.
    scene = rank2_tree_scene_file("crit-abcd+ab", tmp_path)
    counts = Counter()

    def counting_keys(key):
        def counted_key(order, variables):
            keyf = key(order, variables)

            def counted(exps):
                counts["keys"] += 1
                return keyf(exps)

            return counted

        return counted_key

    # ``Ideal.groebner`` is the one caller of ``buchberger``, which calls
    # ``s_polynomial`` and ``normal_form`` as module globals
    monkeypatch.setattr(ideal, "buchberger", counted_calls(counts, "buchberger", groebner.buchberger))
    for name in ("s_polynomial", "normal_form"):
        monkeypatch.setattr(groebner, name, counted_calls(counts, name, getattr(groebner, name)))
    for order in (MonomialOrder, ElimOrder):
        monkeypatch.setattr(order, "key", counting_keys(order.key))
    assert main(["reduce", "--scene", str(scene)]) == 0
    capsys.readouterr()
    work = (counts["buchberger"], counts["s_polynomial"], counts["normal_form"], counts["zero"])
    assert work == (23, 29, 24, 5)
    assert counts["keys"] <= 518, counts["keys"]


def test_a_rank2_reduce_builds_no_quotient_and_checks_each_presentation_once(tmp_path, monkeypatch, capsys):
    # The same ``reduce`` as above, with the same Buchberger work.  A
    # normal form runs the division loop without building quotients, so no
    # ``divide`` is called (144 before: the 126 normal forms and 18 exact
    # divisions).  The fraction-free rank makes no division at its first
    # pivot, which is a unit; that was all 18 exact divisions.  Each
    # presentation checks the degree-2 vanishing property for the whole
    # torus once and keeps the answer: 9 checks for the 9 nodes, beside the
    # 3 that the blow-ups make for their centers (20 before).
    scene = rank2_tree_scene_file("crit-abcd+ab", tmp_path)
    counts = Counter()
    monkeypatch.setattr(ideal, "buchberger", counted_calls(counts, "buchberger", groebner.buchberger))
    patched = (
        (groebner, "s_polynomial"),
        (groebner, "normal_form"),
        (groebner, "divide"),
        (groebner, "exact_divide"),
        (reduce, "exact_divide"),
        (cdga, "dagger_check"),
        (blowup, "dagger_check"),
    )
    for module, name in patched:
        monkeypatch.setattr(module, name, counted_calls(counts, name, getattr(module, name)))
    assert main(["reduce", "--scene", str(scene)]) == 0
    capsys.readouterr()
    work = (counts["buchberger"], counts["s_polynomial"], counts["normal_form"], counts["zero"])
    assert work == (23, 29, 24, 5)
    assert (counts["divide"], counts["exact_divide"]) == (0, 0)
    assert counts["dagger_check"] <= 12, counts["dagger_check"]
