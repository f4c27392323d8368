"""The lemmas of the swap-map calculus, as tables for the test suite.

The boundary factorization is assembled from these lemmas, and no command
needs them, so they live here rather than in the package.  Each relation is
a (name, lhs, rhs) entry; a test decides it at its tier and names the
entries that fail.

* framed_relations(): the seven relations in the framed braid group B_{*4},
  decided exactly by framed_equal.
* conjugation_rules(A, i, j, layout): the subsurface conjugation rules of
  rho_ij for a word A on the subsurface model, as twist words on the
  ambient surface; homology can refute them but not certify them.
* boundary_verdicts(fact): the framed-shadow and homology verdicts of a
  boundary multitwist factorization.
"""

from swapfact.framed import (boundary_multitwist_framed, delta_framed,
                             fcompose, finverse, fpower, framed_equal,
                             m_framed, rho_framed)
from swapfact.swaps import (SwapWord, embed, expand, rho, shadow,
                            swap_letter)
from swapfact.words import compose


def framed_relations():
    """The braid and far-commutation relations, both conjugation spellings
    of the non-adjacent swaps, and the two full-twist identities."""
    r12, r23, r34 = rho_framed(1, 2), rho_framed(2, 3), rho_framed(3, 4)
    d12, d23, d34 = delta_framed(1, 2), delta_framed(2, 3), delta_framed(3, 4)
    md = boundary_multitwist_framed(4)
    return [
        ("rho12 rho23 rho12 = rho23 rho12 rho23",
         fcompose(r12, r23, r12), fcompose(r23, r12, r23)),
        ("rho23 rho34 rho23 = rho34 rho23 rho34",
         fcompose(r23, r34, r23), fcompose(r34, r23, r34)),
        ("rho13: rho12^-1 rho23 rho12 = rho23 rho12 rho23^-1",
         fcompose(finverse(r12), r23, r12),
         fcompose(r23, r12, finverse(r23))),
        ("rho24: rho23^-1 rho34 rho23 = rho34 rho23 rho34^-1",
         fcompose(finverse(r23), r34, r23),
         fcompose(r34, r23, finverse(r34))),
        ("rho12 rho34 = rho34 rho12",
         fcompose(r12, r34), fcompose(r34, r12)),
        ("(delta34 delta23 delta12)^4 = Mb M4^2 M3^2 M2^2 M1^2",
         fpower(fcompose(d34, d23, d12), 4),
         fcompose(md, *[fpower(m_framed(i), 2) for i in (4, 3, 2, 1)])),
        ("(rho34 rho23 rho12)^4 = Mb M4^-4 M3^-4 M2^-4 M1^-4",
         fpower(fcompose(r34, r23, r12), 4),
         fcompose(md, *[fpower(m_framed(i), -4) for i in (4, 3, 2, 1)])),
    ]


def rho_conjugated(layout, i, j, a_word):
    """The swap letter rho_ij^A = A_i rho_ij A_i^-1, for A on the
    subsurface model."""
    v = SwapWord(layout, ((("sub", i, a_word), 1),))
    return swap_letter(layout, ("conj", v, ("rho", i, j)))


def conjugation_rules(a_word, i, j, layout):
    """A_i rho_ij = rho_ij A_j, A_j rho_ij = rho_ij A_i, and the two
    spellings of rho_ij^A, expanded to twist words."""
    r = expand(rho(layout, i, j))
    ai, aj = embed(a_word, i, layout), embed(a_word, j, layout)
    ra = expand(rho_conjugated(layout, i, j, a_word))
    return [
        (f"A_{i} rho = rho A_{j}", ai * r, r * aj),
        (f"A_{j} rho = rho A_{i}", aj * r, r * ai),
        ("rho^A = A_i rho A_i^-1", ra, compose(ai, r, ai.inverse())),
        ("rho^A = A_j^-1 rho A_j", ra, compose(aj.inverse(), r, aj)),
    ]


def boundary_verdicts(fact):
    """(framed shadow, homology) verdicts for a boundary multitwist
    factorization: its skeleton shadows to Mb exactly, and its word acts
    as the identity on H_1 of the ambient surface."""
    layout = fact.skeleton.layout
    return (framed_equal(shadow(fact.skeleton), boundary_multitwist_framed(4)),
            layout.calculator.is_identity_action(fact.word))
