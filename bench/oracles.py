"""Independent checks of the benchmark's outputs, run outside every timed
region by ``run.py`` (never by the worker being measured).

* Groebner bases: sympy's ``groebner`` on the same input.  Reduced bases
  are unique, so every later job of the same ideal must give the same set.
* Weyl-algebra results: the faithful action of A_n on k[y], where x_i acts
  as d/dy_i and y_i as multiplication.  ``(u*v)(f) == u(v(f))`` is tested at
  a random point, for a random f of high enough degree in each variable,
  modulo a large prime (modulo p for the GF(p) block).
* Session transcripts: sympy re-derives every ``quotient`` and ``gb`` basis,
  ``member`` cofactors and remainders (``reduced``), ``apply`` images,
  ``check dideal`` answers, certificates (the word of partials is replayed)
  and Darboux hits (``d(h) == cofactor*h``).  Every later run of a session
  must reproduce its first transcript byte for byte, which covers the
  verdict lines.

Each ``check`` returns None when the output is right, else the reason.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import workloads as W

BIG_PRIME = (1 << 61) - 1


def _sympy():
    import sympy
    return sympy


# -- Groebner bases ------------------------------------------------------------


def _basis_set(basis, modulus):
    """Our serialised basis as a comparable set of {exponents: coefficient}."""
    def coeff(text):
        return int(text) % modulus if modulus else Fraction(text)
    return frozenset(frozenset((tuple(e), coeff(c)) for e, c in poly)
                     for poly in basis)


class GroebnerOracle:
    def __init__(self):
        self.reference = {}   # label -> (basis set, sympy ms on the first input)

    def _sympy_basis(self, job):
        sp = _sympy()
        gens = sp.symbols(f"u0:{job['nvars']}")
        modulus = job["modulus"]
        options = {"modulus": modulus} if modulus else {"domain": "QQ"}
        polys = [sp.Poly.from_dict(dict(g), *gens, **options) for g in job["gens"]]
        start = time.perf_counter()
        basis = sp.groebner(polys, *gens, order="grevlex", **options)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        out = []
        for p in basis.polys:
            terms = []
            for monom, c in p.terms():
                if modulus:
                    terms.append((tuple(monom), int(c) % modulus))
                else:
                    c = sp.Rational(c)
                    terms.append((tuple(monom), Fraction(int(c.p), int(c.q))))
            out.append(frozenset(terms))
        return frozenset(out), elapsed_ms

    def check(self, job, result):
        label = job["label"]
        if label not in self.reference:
            self.reference[label] = self._sympy_basis(job)
        expected, _ = self.reference[label]
        if _basis_set(result, job["modulus"]) != expected:
            return f"{label}: basis differs from sympy's reduced basis"
        return None

    def sympy_ms(self):
        return {label: ms for label, (_, ms) in self.reference.items()}


# -- Weyl algebras: the action on k[y] ----------------------------------------------


def _falling(e, k, m):
    out = 1
    for j in range(k):
        out = out * (e - j) % m
    return out


def _mod(value, m):
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, m) % m


class _Point:
    """A random point y* and a random f = prod_i p_i(y_i), deg p_i = degrees[i].

    A product f detects any nonzero operator of order <= deg p_i in each y_i,
    and its derivatives at y* are products of a small table.  Functions are
    handled as truncated Taylor series in z = y - y*: an operator of order s
    applied to a series exact to degree D gives a series exact to D - s, so
    u(v(f)) and u^k(f) at y* need only a few low-degree terms."""

    def __init__(self, rng, degrees, m):
        self.m = m
        self.n = len(degrees)
        self.at = [rng.randrange(1, m) for _ in degrees]
        factors = [[rng.randrange(1, m) for _ in range(d + 1)] for d in degrees]
        # table[i][k] = p_i^(k)(y*_i)
        self.table = [[sum(_falling(e, k, m) * c * pow(y, e - k, m)
                           for e, c in enumerate(coeffs) if e >= k) % m
                       for k in range(len(coeffs))]
                      for coeffs, y in zip(factors, self.at)]

    def value(self, poly):
        """poly(y*) for a {exponents: coefficient} map."""
        m = self.m
        total = 0
        for e, c in poly.items():
            for y, k in zip(self.at, e):
                c = c * pow(y, k, m) % m
            total += c
        return total % m

    def act_on_f(self, element):
        """element(f)(y*) for a Weyl element {x exponents: coefficient poly}."""
        total = 0
        for a, r in element.items():
            derivative = 1
            for row, k in zip(self.table, a):
                derivative = derivative * row[k] % self.m if k < len(row) else 0
            total += self.value(r) * derivative
        return total % self.m

    def f_series(self, order):
        """Taylor series of f at y*, exact to total degree `order`."""
        m = self.m
        series = {(): 1}
        for row in self.table:
            series = {e + (k,): c * row[k] * pow(math.factorial(k), -1, m) % m
                      for e, c in series.items()
                      for k in range(min(len(row), order - sum(e) + 1))}
        return series

    def shift(self, poly, order):
        """poly(y* + z) as a series truncated at degree `order`."""
        m = self.m
        out = {}
        for e, c in poly.items():
            series = {(): c}
            for y, k in zip(self.at, e):
                series = {t + (j,): v * math.comb(k, j) * pow(y, k - j, m) % m
                          for t, v in series.items()
                          for j in range(min(k, order - sum(t)) + 1)}
            for t, v in series.items():
                out[t] = (out.get(t, 0) + v) % m
        return out

    def apply(self, element, series, order):
        """element(series), truncated at degree `order`."""
        m = self.m
        out = {}
        for a, r in element.items():
            derived = {}
            for e, c in series.items():
                if sum(e) - sum(a) <= order and all(x >= k for x, k in zip(e, a)):
                    for x, k in zip(e, a):
                        c = c * _falling(x, k, m) % m
                    derived[tuple(x - k for x, k in zip(e, a))] = c
            for t, v in _mul_series(self.shift(r, order), derived, order, m).items():
                out[t] = (out.get(t, 0) + v) % m
        return out

    def times_y(self, i, series):
        """y_i * series, with y_i = y*_i + z_i."""
        z_i = tuple(int(j == i) for j in range(self.n))
        return _mul_series({(0,) * self.n: self.at[i], z_i: 1}, series,
                           max(map(sum, series), default=0) + 1, self.m)


def _mul_series(p, q, order, m):
    out = {}
    for e1, c1 in p.items():
        d1 = sum(e1)
        for e2, c2 in q.items():
            if d1 + sum(e2) <= order:
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = (out.get(key, 0) + c1 * c2) % m
    return out


def _element_from_job(terms, m):
    return {tuple(x): {tuple(y): _mod(c, m) for y, c in r.items()}
            for x, r in terms.items()}


def _element_from_result(terms, m):
    return {tuple(x): {tuple(y): _mod(c, m) for y, c in r} for x, r in terms}


def _x_degrees(element, n):
    return [max((a[i] for a in element), default=0) for i in range(n)]


def _order(element):
    return max((sum(a) for a in element), default=0)


class WeylOracle:
    """One trial modulo BIG_PRIME misses a wrong result with probability
    below 1e-15; modulo p = 32003 it takes two to get below 1e-6."""

    def check(self, job, result, rng):
        m = job["modulus"] or BIG_PRIME
        trials = 2 if job["modulus"] else 1
        n = job["n"]
        u = _element_from_job(job["u"], m)
        if job["kind"] == "inner":
            return self._check_inner(n, u, result, rng, m, trials)
        w = _element_from_result(result, m)
        zero = (0,) * n
        if job["kind"] == "mul":
            v = _element_from_job(job["v"], m)
            bound = [a + b for a, b in zip(_x_degrees(u, n), _x_degrees(v, n))]
        else:
            bound = [job["k"] * d for d in _x_degrees(u, n)]
        degrees = [max(a, b) for a, b in zip(bound, _x_degrees(w, n))]
        for _ in range(trials):
            point = _Point(rng, degrees, m)
            if job["kind"] == "mul":
                series = point.f_series(_order(u) + _order(v))
                series = point.apply(u, point.apply(v, series, _order(u)), 0)
            else:
                steps = [_order(u)] * job["k"]
                series = point.f_series(sum(steps))
                while steps:
                    steps.pop()
                    series = point.apply(u, series, sum(steps))
            if point.act_on_f(w) != series.get(zero, 0):
                return f"{job['kind']} in A_{n}: result acts differently on k[y]"
        return None

    @staticmethod
    def _check_inner(n, u, result, rng, m, trials):
        names = ["y"] if n == 1 else [f"y{i + 1}" for i in range(n)]
        zero = (0,) * n
        one = {zero: 1}
        residual = (_element_from_result(result["residual"], m)
                    if not result["induced"] else {})
        order = max(_order(u), _order(residual))
        for _ in range(trials):
            point = _Point(rng, [d + 1 for d in _x_degrees(u, n)], m)
            f = point.f_series(order)
            f_at = f.get(zero, 0)

            def at(element, series):
                return point.apply(element, series, 0).get(zero, 0)

            def commutator_at(i, series):
                """[u, y_i](g) at y*."""
                return (at(u, point.times_y(i, series))
                        - point.at[i] * at(u, series)) % m

            if result["induced"]:
                for i, image in enumerate(result["images"]):
                    c = {tuple(e): _mod(v, m) for e, v in image}
                    if commutator_at(i, f) != point.value(c) * f_at % m:
                        return f"inner in A_{n}: image of {names[i]} is wrong"
                continue
            i = names.index(result["offending"])
            for j in range(i):
                if commutator_at(j, f) != commutator_at(j, one) * f_at % m:
                    return f"inner in A_{n}: {names[j]} does not induce a derivation"
            if _order(residual) < 1:
                return f"inner in A_{n}: residual has skew degree 0"
            if at(residual, f) != commutator_at(i, f):
                return f"inner in A_{n}: residual of {names[i]} is wrong"
        return None


# -- session transcripts -----------------------------------------------------------


class SessionOracle:
    def __init__(self, root, seed, tiny):
        self.texts = dict(W.generated_sessions(seed, tiny))
        self.texts[W.ACCEPTANCE_SESSION] = (root / W.ACCEPTANCE_SESSION).read_text(
            encoding="utf-8")
        self.first = {}   # session name -> first transcript

    def check(self, job, result):
        if result["code"] != 0 or result["err"]:
            return f"{job['name']}: exit {result['code']} {result['err'].strip()}"
        name = job["name"]
        if name in self.first:
            if result["out"] != self.first[name]:
                return f"{name}: transcript differs from its first run"
            return None
        self.first[name] = result["out"]
        return _SessionReplay().check(result["out"])


class _SessionReplay:
    """Re-derives a session's checkable records from the transcript alone."""

    def __init__(self):
        self.sp = _sympy()
        self.rings = {}        # name -> (symbols, options, ideal generators or None)
        self.ideals = {}       # name -> (ring name, generator exprs)
        self.derivations = {}  # name -> (ring name, image exprs)

    def parse(self, text, ring):
        symbols = self.rings[ring][0]
        return self.sp.sympify(text.replace("^", "**"),
                               locals={str(s): s for s in symbols})

    def basis(self, ring, generators):
        symbols, options, _ = self.rings[ring]
        return self.sp.groebner(generators, *symbols, order="grevlex", **options)

    def poly_key(self, ring, expr):
        symbols, options, _ = self.rings[ring]
        return frozenset(self.sp.Poly(expr, *symbols, **options).as_dict().items())

    def same_set(self, ring, ours, theirs):
        return ({self.poly_key(ring, self.parse(t, ring)) for t in ours}
                == {self.poly_key(ring, g) for g in theirs})

    def remainder(self, ring, expr, generators):
        symbols, options, _ = self.rings[ring]
        if not generators:
            return self.sp.expand(expr)
        basis = self.basis(ring, generators)
        _, r = self.sp.reduced(expr, list(basis.exprs), *symbols,
                               order="grevlex", **options)
        return self.sp.expand(r)

    def chain_rule(self, ring, expr, images):
        symbols = self.rings[ring][0]
        return self.sp.expand(sum(self.sp.diff(expr, s) * img
                                  for s, img in zip(symbols, images)))

    def check(self, transcript):
        sp = self.sp
        last_pair = None
        for line in transcript.splitlines():
            rec = json.loads(line)
            cmd = rec["command"]
            if cmd == "ring":
                field = rec["field"]
                options = ({"domain": "QQ"} if field == "QQ"
                           else {"modulus": int(field[3:-1])})
                symbols = sp.symbols(rec["variables"])
                self.rings[rec["name"]] = (symbols, options, None)
                if len(symbols) == 2:
                    last_pair = rec["name"]
            elif cmd == "ideal":
                self.ideals[rec["name"]] = (
                    rec["ring"], [self.parse(g, rec["ring"]) for g in rec["generators"]])
            elif cmd == "quotient":
                ring, gens = self.ideals[rec["ideal"]]
                if not self.same_set(ring, rec["groebner_basis"], self.basis(ring, gens)):
                    return f"quotient {rec['name']}: basis differs from sympy"
                symbols, options, _ = self.rings[ring]
                self.rings[rec["name"]] = (symbols, options, gens)
            elif cmd == "der":
                ring = rec["ring"]
                names = [str(s) for s in self.rings[ring][0]]
                self.derivations[rec["name"]] = (
                    ring, [self.parse(rec["images"][n], ring) for n in names])
            elif cmd == "gb":
                ring, gens = self.ideals[rec["ideal"]]
                if not self.same_set(ring, rec["basis"], self.basis(ring, gens)):
                    return f"gb {rec['ideal']}: basis differs from sympy"
            elif cmd == "member":
                ring, gens = self.ideals[rec["ideal"]]
                f = self.parse(rec["element"], ring)
                r = self.remainder(ring, f, gens)
                if rec["member"] != (r == 0):
                    return f"member {rec['element']}: wrong membership answer"
                if "cofactors" in rec:
                    ours = self.parse(rec["remainder"], ring)
                    if sp.expand(ours - r) != 0:
                        return f"member {rec['element']}: remainder differs from sympy"
                    total = sum(self.parse(c["cofactor"], ring)
                                * self.parse(c["basis_element"], ring)
                                for c in rec["cofactors"])
                    if sp.expand(f - total - ours) != 0:
                        return f"member {rec['element']}: cofactors do not recombine"
            elif cmd == "apply":
                ring, images = self.derivations[rec["derivation"]]
                f = self.parse(rec["element"], ring)
                expected = self.remainder(ring, self.chain_rule(ring, f, images),
                                          self.rings[ring][2])
                if sp.expand(self.parse(rec["result"]["str"], ring) - expected) != 0:
                    return f"apply {rec['derivation']}: image differs from sympy"
            elif cmd == "check_dideal":
                ring, gens = self.ideals[rec["ideal"]]
                stable = all(
                    self.remainder(ring, self.chain_rule(
                        ring, g, self.derivations[d][1]), gens) == 0
                    for d in rec["derivations"] for g in gens)
                if stable != rec["d_ideal"]:
                    return f"check dideal {rec['ideal']}: wrong answer"
            elif cmd == "certificate":
                symbols = {str(s): s for r in self.rings.values() for s in r[0]}
                g = sp.sympify(rec["element"].replace("^", "**"), locals=symbols)
                for name in rec["word"]:
                    g = sp.diff(g, symbols[name])
                constant = sp.Rational(rec["constant"])
                if constant == 0 or sp.expand(g - constant) != 0:
                    return f"certificate {rec['element']}: word does not replay"
            elif cmd == "darboux" and rec["status"] == "found":
                x, y = self.rings[last_pair][0]
                F, h, cof = (self.parse(rec[k], last_pair) for k in ("F", "h", "cofactor"))
                if (not h.free_symbols or
                        sp.expand(sp.diff(h, x) + F * sp.diff(h, y) - cof * h) != 0):
                    return f"darboux {rec['F']}: d(h) != cofactor*h"
        return None
