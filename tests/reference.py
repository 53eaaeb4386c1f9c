"""Test-side constructions that the engine itself never calls.

`element_from_components` builds a module element from one polynomial per
position, the way hand-written test cases are easiest to state.
`verify_resolution_exactness` is the dense second opinion on a resolution:
degree by degree, through the oracle's row reduction, it checks that the
homology vanishes at every positive spot.  The engine checks its own
resolutions by the graded Euler characteristic instead.
`reference_colon`, `reference_intersect` and `reference_annihilator` build
each kernel with its own hand-laid blocks, as the engine did before one
`stacked_kernel` served all three; the tests require the same reduced
bases from both.
`reference_minimal_presentation` deletes one generator per round and
renumbers the ambient and every relation after each deletion, as the engine
did before `minimal_presentation` kept the original positions throughout.
`reference_present_subquotient` presents a subquotient on all of its
generators, a kernel over every one of them, as the engine did before it
picked minimal generators modulo the bottom first, and
`reference_ext_module` is the route `ext_module` took with the two: all of
ker d_i^T presented over im d_(i-1)^T, then units eliminated.  The tests
require the same twists and relation bases from the engine and from these.
`reference_multiples_hdeg` and `reference_sections_quotient_degrees` take
hdeg of QM, and hdeg and the first torsion of M/H⁰(M), by resolving and
dualizing each module itself, as the inequality battery did before it
read them off M's own duals.
`reference_tokenize_line` scans a session line one character at a time, as
the parser did before one regular expression tokenized it.
`substitute_linear` and `substitute_element` apply a linear change of
coordinates in polynomial arithmetic, rebuilding the variable images and
their powers on every call, as the graded table route did before one
`modules.LinearChange` per Q kept the image of each monomial.
`reference_initial_module` takes the lowest-weight forms of the table
engine's tangent-cone basis into a plain ambient and runs Buchberger on
them again, with the Hilbert-series check, as `_initial_module` did before
it kept the forms, in the engine's own ambient, as the reduced basis.
"""
from genuslab import oracle
from genuslab.errors import CrossCheckFailure, ParseError
from genuslab.groebner import (SubmoduleBasis, groebner_basis, hilbert_series,
                               kernel_of_map)
from genuslab.homology import _transpose, free_resolution
from genuslab.invariants import _engine, hdeg, torsion
from genuslab.modules import GradedModule, present_subquotient, zero_module
from genuslab.ring import (FreeElement, FreeModule, Polynomial,
                           poly_in_position, poly_times_element)


def element_from_components(ambient: FreeModule, polys) -> FreeElement:
    """The element with polys[i] in position i (None or 0 for nothing);
    degrees must agree after twisting."""
    terms = {}
    for pos, f in enumerate(polys):
        if f is None or f.is_zero:
            continue
        for e, c in f.terms.items():
            terms[(pos, e)] = c
    return FreeElement(ambient, terms)


def verify_resolution_exactness(res, degree_bound: int) -> None:
    """Dense degreewise check that the homology of the complex res vanishes
    at its positive spots up to the given degree; CrossCheckFailure names
    the first spot and degree where it does not.  Exponential in degree;
    for small instances only."""
    for i in range(1, len(res.spots)):
        fi = res.spots[i]
        lo = min(fi.twists) if fi.twists else 0
        for t in range(lo, degree_bound + 1):
            full = len(oracle.degree_terms(fi, t))
            rank_in = oracle.span_dimension(res.spots[i - 1], res.diffs[i - 1], t)
            rank_next = (oracle.span_dimension(fi, res.diffs[i], t)
                         if i < len(res.diffs) else 0)
            if full - rank_in != rank_next:
                raise CrossCheckFailure(
                    f"resolution not exact at spot {i}, degree {t}")


def reference_colon(n: SubmoduleBasis, polys) -> SubmoduleBasis:
    """{v : g·v in n for every g in polys}, one block per polynomial."""
    polys = [g for g in polys if g]
    ambient = n.ambient
    ring = ambient.ring
    if not polys:
        full = [ambient.generator(i) for i in range(ambient.rank)]
        return groebner_basis(ambient, full)
    r = ambient.rank
    block_twists = []
    for g in polys:
        block_twists.extend(t - g.degree for t in ambient.twists)
    target = FreeModule(ring, tuple(block_twists))
    cols = []
    for i in range(r):
        terms = {}
        for j, g in enumerate(polys):
            for e, c in g.terms.items():
                terms[(j * r + i, e)] = c
        cols.append(FreeElement(target, terms))
    rels = []
    for j in range(len(polys)):
        for g in n.gb:
            rels.append(FreeElement(
                target, {(j * r + pos, e): c for (pos, e), c in g.terms.items()},
                _checked=True))
    ker = kernel_of_map(cols, list(ambient.twists), target, relations=rels)
    out = [FreeElement(ambient, dict(g.terms), _checked=True) for g in ker.gb]
    return SubmoduleBasis(ambient, out)


def reference_intersect(n1: SubmoduleBasis, n2: SubmoduleBasis) -> SubmoduleBasis:
    """n1 ∩ n2 from two blocks, v -> (v, v)."""
    ambient = n1.ambient
    ring = ambient.ring
    r = ambient.rank
    target = FreeModule(ring, ambient.twists + ambient.twists)
    cols = []
    for i in range(r):
        cols.append(FreeElement(target, {(i, ring.zero_exps()): 1,
                                         (i + r, ring.zero_exps()): 1}))
    rels = [FreeElement(target, dict(g.terms), _checked=True) for g in n1.gb]
    rels += [FreeElement(target, {(pos + r, e): c for (pos, e), c in g.terms.items()},
                         _checked=True) for g in n2.gb]
    ker = kernel_of_map(cols, list(ambient.twists), target, relations=rels)
    out = [FreeElement(ambient, dict(g.terms), _checked=True) for g in ker.gb]
    return SubmoduleBasis(ambient, out)


def reference_annihilator(module) -> SubmoduleBasis:
    """{f : f·M = 0}, one block per generator of M."""
    ring = module.algebra.ring
    r = module.rank
    F1 = FreeModule(ring, (0,))
    if r == 0:
        return groebner_basis(F1, [poly_in_position(F1, ring.constant(1), 0)])
    block_twists = []
    for j in range(r):
        block_twists.extend(t - module.twists[j] for t in module.twists)
    target = FreeModule(ring, tuple(block_twists))
    terms = {}
    for j in range(r):
        terms[(j * r + j, ring.zero_exps())] = 1
    col = FreeElement(target, terms)
    rels = []
    for j in range(r):
        for g in module.relations.gb:
            rels.append(FreeElement(
                target,
                {(j * r + pos, e): c for (pos, e), c in g.terms.items()},
                _checked=True))
    ker = kernel_of_map([col], [0], target, relations=rels)
    return SubmoduleBasis(F1, [
        FreeElement(F1, dict(g.terms), _checked=True) for g in ker.gb])


def reference_minimal_presentation(module) -> GradedModule:
    """Per-round unit elimination: the first relation with a unit entry
    deletes its smallest unit position, then the ambient and every relation
    are renumbered before the next round."""
    ring = module.algebra.ring
    one = ring.zero_exps()
    rels = list(module.relations.gb)
    twists = list(module.twists)
    while True:
        hit = None
        for g in rels:
            units = [pos for pos, e in g.terms if e == one]
            if units:
                t = min(units)
                hit = (g, t, g.terms[(t, one)])
                break
        if hit is None:
            break
        g, t, u = hit
        inv = ring.inv(u)
        survivors = []
        for h in rels:
            if h is g:
                continue
            ct = h.component(t)
            if ct:
                h = h - poly_times_element(ct.scale(inv), g)
            survivors.append(h)
        new_twists = twists[:t] + twists[t + 1:]
        F = FreeModule(ring, tuple(new_twists))
        remapped = []
        for h in survivors:
            if not h:
                continue
            remapped.append(FreeElement(
                F, {(pos - 1 if pos > t else pos, e): c
                    for (pos, e), c in h.terms.items()}, _checked=True))
        rels = remapped
        twists = new_twists
    if tuple(twists) == module.twists:
        return module
    F = FreeModule(ring, tuple(twists))
    basis = groebner_basis(F, rels)
    return GradedModule(module.algebra, tuple(twists), basis,
                        relations_complete=True)


def reference_present_subquotient(algebra, gens, bottom, ambient):
    """(gens + bottom)/bottom presented on every nonzero gen."""
    gens = [g for g in gens if g]
    degs = [g.degree for g in gens]
    ker = kernel_of_map(gens, degs, ambient, relations=bottom)
    return GradedModule(algebra, degs, ker, relations_complete=True)


def ext_cycles_and_boundaries(module, i):
    """(Z, B, F_i*) at spot 0 <= i <= pd of the dualized minimal
    resolution: the basis elements of Z = ker d_i^T (all of F_i* at i = pd)
    and the basis B of im d_(i-1)^T (zero at i = 0), both in F_i*."""
    res = free_resolution(module)
    ring = module.algebra.ring
    fi_star = FreeModule(ring, tuple(-t for t in res.spots[i].twists))
    if i < res.length:
        fnext_star = FreeModule(
            ring, tuple(-t for t in res.spots[i + 1].twists))
        tcols = _transpose(res.diffs[i], fnext_star)
        top = list(kernel_of_map(tcols, list(fi_star.twists), fnext_star).gb)
    else:
        top = [fi_star.generator(b) for b in range(fi_star.rank)]
    if i >= 1:
        bottom = groebner_basis(fi_star, _transpose(res.diffs[i - 1], fi_star))
    else:
        bottom = SubmoduleBasis.zero(fi_star)
    return top, bottom, fi_star


def reference_ext_module(module, i):
    """Ext^i(M, S) as ext_module presented it before it picked minimal
    generators: all of Z over B, then per-round unit elimination."""
    if i < 0 or i > free_resolution(module).length:
        return zero_module(module.algebra)
    top, bottom, fi_star = ext_cycles_and_boundaries(module, i)
    return reference_minimal_presentation(reference_present_subquotient(
        module.algebra, top, bottom, fi_star))


def reference_multiples_hdeg(module, gens):
    """hdeg(QM) of the module QM presented on its own, then resolved."""
    inner = present_subquotient(module.algebra,
                                module.ideal_multiples(list(gens)),
                                module.relations, module.ambient)
    return hdeg(inner, gens)


def reference_sections_quotient_degrees(module, gens):
    """(hdeg, first torsion) of M/H⁰(M) built and resolved on its own; the
    torsion is None below dimension 2."""
    chopped = module.quotient_by_submodule(module.h0_submodule())
    return (hdeg(chopped, gens),
            torsion(chopped, gens, 1) if len(gens) >= 2 else None)


def reference_tokenize_line(text, line_no):
    """(kind, text, line, col) for each token of one session line.  A run
    of str.isdigit characters is an int token, so a superscript digit,
    which int() cannot read, makes one too."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], line_no, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], line_no, col))
            i = j
        elif ch in "=/,+-*^()[]":
            out.append((ch, ch, line_no, col))
            i += 1
        else:
            raise ParseError(line_no, col, f"unexpected character {ch!r}")
    return out


def substitute_linear(f: Polynomial, t_matrix) -> Polynomial:
    """Apply the substitution x_j -> sum_k t_matrix[j][k] x_k."""
    ring = f.ring
    images = [Polynomial(ring, {ring.var_exps(k): c
                                for k, c in enumerate(row) if c % ring.prime})
              for row in t_matrix]
    out = Polynomial(ring, {})
    powers = {}
    for e, c in f.terms.items():
        term = ring.constant(c)
        for j, a in enumerate(e):
            if a == 0:
                continue
            key = (j, a)
            if key not in powers:
                powers[key] = images[j] ** a
            term = term * powers[key]
        out = out + term if out else term
    return out


def substitute_element(v: FreeElement, t_matrix) -> FreeElement:
    ambient = v.ambient
    comps = [substitute_linear(v.component(i), t_matrix) if v.component(i) else None
             for i in range(ambient.rank)]
    terms = {}
    for pos, f in enumerate(comps):
        if f is None or not f:
            continue
        for e, c in f.terms.items():
            terms[(pos, e)] = c
    return FreeElement(ambient, terms)


def reference_initial_module(module, gens) -> SubmoduleBasis:
    """N*_W with gr_W(M) = F/N*_W, in a plain ambient: a fresh reduced basis
    of the lowest-weight forms of the table engine's basis."""
    eng = _engine(module, gens)
    F = FreeModule(module.algebra.ring, module.twists)
    forms = []
    for g in eng.basis_t.gb:
        weights = {t: eng.coords.block_weight(t[1]) for t in g.terms}
        low = min(weights.values())
        forms.append(FreeElement(
            F, {t: c for t, c in g.terms.items() if weights[t] == low},
            _checked=True))
    initial = groebner_basis(F, forms)
    if hilbert_series(initial) != hilbert_series(module.relations):
        raise CrossCheckFailure(
            "the associated graded module changed the Hilbert series")
    return initial
