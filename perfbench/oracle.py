"""Independent check of the scalar layer with sympy.

The engine inverts a coordinate change by Newton iteration on its own
truncated series.  Here sympy composes that inverse with the forward
map, in its own polynomial arithmetic over Q(i), and the result must be
the identity through the degree the inverse is certified to.  sympy is
imported only here, outside every timed section.
"""

from __future__ import annotations


def _scalar(q, domain):
    """A QI scalar as an element of sympy's Q(i)."""
    import sympy

    return domain.from_sympy(sympy.Rational(q.re.numerator, q.re.denominator)
                             + sympy.I * sympy.Rational(q.im.numerator,
                                                        q.im.denominator))


def _poly(cf, gens, domain):
    import sympy

    return sympy.Poly.from_dict({e: _scalar(q, domain)
                                 for e, q in cf.terms.items()},
                                *gens, domain=domain)


def _truncate(p, degree):
    import sympy

    kept = {e: c for e, c in p.as_dict(native=True).items()
            if sum(e) <= degree}
    return sympy.Poly.from_dict(kept, *p.gens, domain=p.domain)


def inverse_compositions(change):
    """(compositions, degree): for each inverse component f_i, the terms
    of f_i(g(x)) through the certified degree of the inverse, as
    {exponent tuple: sympy number}."""
    import sympy

    domain = sympy.QQ_I
    n = change.dim
    gens = sympy.symbols("x1:%d" % (n + 1))
    degree = None
    for cf in list(change.inverse) + list(change.forward):
        if cf.exact_to is not None:
            degree = cf.exact_to if degree is None else min(degree,
                                                            cf.exact_to)
    if degree is None:
        degree = change.cutoff
    forward = [_poly(cf, gens, domain) for cf in change.forward]
    one = sympy.Poly(1, *gens, domain=domain)
    powers = [[one] for _ in range(n)]
    out = []
    for cf in change.inverse:
        acc = sympy.Poly(0, *gens, domain=domain)
        for e, q in cf.terms.items():
            prod = sympy.Poly.from_dict({(0,) * n: _scalar(q, domain)},
                                        *gens, domain=domain)
            for k, p in enumerate(e):
                while len(powers[k]) <= p:
                    powers[k].append(_truncate(powers[k][-1] * forward[k],
                                               degree))
                prod = _truncate(prod * powers[k][p], degree)
            acc = acc + prod
        out.append(acc.as_dict())
    return out, degree
