"""Parser for the expression DSL.

Grammar (EBNF):

    expr    = [ "-" ] term { ( "+" | "-" ) term } ;
    term    = { scalar "*" } factor ;
    scalar  = NUMBER | "i" ;
    factor  = ( "S" | "T" ) ( "(" expr ")" | factor ) | atom ;
    atom    = GEN | "vac" | "i" | NUMBER | flit | nop ;
    nop     = ":" factor { factor } ":" ;
    flit    = "f" "{" [ pair { "," pair } ] "}" ;
    pair    = STRING ":" STRING ;
    query   = "[" expr "_" expr "]" ;

The parser builds the PBW normal form of each production as it reads
it, so ``parse_expression`` returns a NormalForm.

GEN is ``B<k>`` or ``Psi<k>`` with 1 <= k <= dim.  NUMBER is an
unsigned rational ``p`` or ``p/q``; a NUMBER or ``i`` standing alone is
that multiple of the vacuum.  ``S`` and ``T`` bind tightly to the
following factor, so ``T S B1`` needs no parentheses, also inside a
normally ordered product.  Normally ordered products multiply
left-nested and do not nest directly; iterated products are written as
longer chains.  In a ``flit``, the key string lists the exponents of a
coefficient monomial and the value string is a rational or
Gaussian-rational scalar.
"""

from __future__ import annotations

import re

from .scalars import QI, parse_qi, parse_exponents, CoeffFunction
from .terms import (Algebra, B_KIND, PSI_KIND, apply_S, apply_T, nf_mul,
                    nf_scale, nf_combine)


class ParseError(ValueError):
    def __init__(self, message, text, pos):
        super().__init__("%s (at position %d: %r)"
                         % (message, pos, text[pos:pos + 12]))
        self.position = pos


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>"[^"]*")
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z]+\d*)
  | (?P<punct>[:{}()\[\],*+_-])
""", re.VERBOSE)


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", text, pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


_GEN_NAME = re.compile(r"(B|Psi)(\d+)$")

# Deepest nesting of derivations, parentheses and normally ordered
# products accepted; the parser recurses once per level.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text, alg):
        self.text = text
        self.alg = alg
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------

    def peek(self, offset=0):
        return self.toks[min(self.i + offset, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError("expected %r" % value, self.text, pos)

    def fail(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    # -- grammar ------------------------------------------------------

    def parse_expr(self):
        items = []
        sign = QI(1)
        if self.peek()[1] == "-":
            self.next()
            sign = QI(-1)
        items.append(self._signed_term(sign))
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            items.append(self._signed_term(QI(1) if op == "+" else QI(-1)))
        return nf_combine(items)

    def _signed_term(self, sign):
        q, nf = self.parse_term()
        return (sign * q, nf)

    def parse_term(self):
        q = QI(1)
        while self._scalar_ahead():
            q = q * self._scalar()
            self.expect("*")
        return q, self.parse_factor()

    def _scalar_ahead(self):
        kind, text, _ = self.peek()
        if self.peek(1)[1] != "*":
            return False
        return kind == "number" or text == "i"

    def _scalar(self):
        kind, text, pos = self.next()
        if kind == "number":
            return parse_qi(text)
        if text == "i":
            return QI(0, 1)
        raise ParseError("expected a scalar", self.text, pos)

    def parse_factor(self):
        # every nested derivation, parenthesis or product passes here
        if self.depth == MAX_DEPTH:
            self.fail("nesting deeper than %d" % MAX_DEPTH)
        self.depth += 1
        kind, text, pos = self.peek()
        if text in ("S", "T"):
            self.next()
            if self.peek()[1] == "(":
                self.next()
                arg = self.parse_expr()
                self.expect(")")
            else:
                arg = self.parse_factor()
            out = apply_S(arg) if text == "S" else apply_T(arg)
        else:
            out = self.parse_atom()
        self.depth -= 1
        return out

    def parse_atom(self):
        kind, text, pos = self.next()
        if kind == "number":
            return nf_scale(self.alg.one(), parse_qi(text))
        if text == ":":
            out = self.parse_factor()
            while self.peek()[1] != ":":
                if self.peek()[0] == "end":
                    self.fail("unterminated normally ordered product")
                out = nf_mul(out, self.parse_factor())
            self.next()
            return out
        if kind == "name":
            if text == "vac":
                return self.alg.one()
            if text == "i":
                return nf_scale(self.alg.one(), QI(0, 1))
            if text == "f":
                return self.alg.coeff_nf(self._literal())
            m = _GEN_NAME.match(text)
            if m:
                index = int(m.group(2))
                if not 1 <= index <= self.alg.dim:
                    raise ParseError("generator index out of range 1..%d"
                                     % self.alg.dim, self.text, pos)
                knd = B_KIND if m.group(1) == "B" else PSI_KIND
                return self.alg.nf_gen(knd, index)
        raise ParseError("expected an expression", self.text, pos)

    def _literal(self):
        self.expect("{")
        terms = {}
        if self.peek()[1] != "}":
            while True:
                pos = self.peek()[2]
                key = self._string()
                try:
                    exps = parse_exponents(key, self.alg.dim, terms)
                except ValueError as err:
                    raise ParseError(str(err), self.text, pos) from None
                self.expect(":")
                terms[exps] = parse_qi(self._string())
                if self.peek()[1] != ",":
                    break
                self.next()
        self.expect("}")
        return CoeffFunction(self.alg.dim, self.alg.cutoff, terms)

    def _string(self):
        kind, text, pos = self.next()
        if kind != "string":
            raise ParseError("expected a quoted string", self.text, pos)
        return text[1:-1]

    def parse_query(self):
        self.expect("[")
        left = self.parse_expr()
        self.expect("_")
        right = self.parse_expr()
        self.expect("]")
        return left, right

    def finish(self):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)


def parse_expression(text, dim, cutoff):
    """The normal form of the state that text denotes."""
    p = _Parser(text, Algebra(dim, cutoff))
    nf = p.parse_expr()
    p.finish()
    return nf


def parse_bracket_query(text, dim, cutoff):
    """The normal forms of the two states of a '[e1 _ e2]' query."""
    p = _Parser(text, Algebra(dim, cutoff))
    pair = p.parse_query()
    p.finish()
    return pair


def looks_like_query(text):
    return text.lstrip().startswith("[")
