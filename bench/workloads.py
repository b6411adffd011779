"""Seeded input generators for the derivalg benchmark.

Everything here is plain data built from a ``random.Random``: polynomials
are ``{exponent tuple: int}`` maps, Weyl-algebra elements are
``{x exponents: {y exponents: int}}`` maps and sessions are DSL text.
Nothing imports derivalg, so ``run.py`` can regenerate the exact inputs a
worker ran, from the same seed, to check the outputs.

A run is a fixed number of rounds.  Round ``r`` of workload ``w`` under seed
``s`` depends only on ``(w, s, r)``, and every round holds the same mix of job
kinds.  The number of rounds is ``--seconds`` divided by the workload's
nominal round time, so a run is the same work on every commit and takes
about ``--seconds`` at the time the benchmark was defined.
"""

from __future__ import annotations

import random

PRIME = 32003
ACCEPTANCE_SESSION = "tests/data/acceptance_session.dsl"

WORKLOADS = ("groebner-batch", "weyl-products", "session-replay")

# seconds per round that size a run; at --seconds 15 they give 3, 107 and 62
# rounds: about 18, 10 and 10 s of job time at the reference speed
# (speed.py), and 15-35 s of wall clock per run on the 2-core Xeon VM,
# Python 3.11.7, the benchmark was defined on
NOMINAL_ROUND_S = {"groebner-batch": 5.0, "weyl-products": 0.14,
                   "session-replay": 0.24}


def round_count(workload: str, seconds: float, tiny: bool = False) -> int:
    if tiny:
        return max(1, round(seconds * 4))
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def round_rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- polynomial systems ------------------------------------------------------


def katsura(n: int):
    """Katsura-n: n + 1 variables u0..un, n + 1 equations (integer terms)."""
    nvars = n + 1

    def unit(k):
        k = abs(k)
        if k > n:
            return None
        e = [0] * nvars
        e[k] = 1
        return tuple(e)

    linear = {unit(0): 1}
    for i in range(1, nvars):
        linear[unit(i)] = 2
    linear[(0,) * nvars] = -1
    equations = [linear]
    for m in range(n):
        eq = {}
        for l in range(-n, n + 1):
            a, b = unit(l), unit(m - l)
            if a is None or b is None:
                continue
            e = tuple(x + y for x, y in zip(a, b))
            eq[e] = eq.get(e, 0) + 1
        eq[unit(m)] = eq.get(unit(m), 0) - 1
        equations.append({e: c for e, c in eq.items() if c})
    return nvars, equations


def cyclic(n: int):
    """Cyclic-n: n variables, the n elementary cyclic sums and prod - 1."""
    equations = []
    for k in range(1, n):
        eq = {}
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            eq[tuple(e)] = eq.get(tuple(e), 0) + 1
        equations.append(eq)
    equations.append({(1,) * n: 1, (0,) * n: -1})
    return n, equations


def rotate_and_scale(rng: random.Random, equations, shift: int):
    """The same ideal on another path: the generator list rotated by `shift`,
    each generator scaled by a random nonzero integer (nonzero mod PRIME)."""
    n = len(equations)
    out = []
    for i in range(n):
        scale = rng.choice([-1, 1]) * rng.randint(1, 97)
        out.append({e: c * scale for e, c in equations[(i + shift) % n].items()})
    return out


# (label, family, n, field modulus or None for QQ, copies per round).  A
# family with as many copies as generators covers every rotation in each
# round; katsura-5's rotations all cost about the same, so one copy will do.
# The counts also put job_ms_p50 among the katsura-3/GF jobs and
# job_ms_tail (the 11th largest latency) among the katsura-4/QQ jobs.
GROEBNER_MIX = (
    ("katsura-5/GF", katsura, 5, PRIME, 1),
    ("katsura-4/QQ", katsura, 4, None, 5),
    ("katsura-4/GF", katsura, 4, PRIME, 5),
    ("cyclic-4/QQ", cyclic, 4, None, 8),
    ("cyclic-4/GF", cyclic, 4, PRIME, 8),
    ("katsura-3/QQ", katsura, 3, None, 4),
    ("katsura-3/GF", katsura, 3, PRIME, 4),
)
GROEBNER_MIX_TINY = (
    ("cyclic-3/QQ", cyclic, 3, None, 1),
    ("katsura-2/GF", katsura, 2, PRIME, 1),
)


def groebner_job(rng, label, family, n, modulus, shift):
    nvars, equations = family(n)
    return {"kind": "gb", "label": label, "modulus": modulus, "nvars": nvars,
            "gens": rotate_and_scale(rng, equations, shift)}


def groebner_round(seed: int, index: int, tiny: bool = False):
    """Each family's jobs walk through the rotations of its generator list
    from a seeded start.  The path (and cost) of a basis depends on the
    generator order, so a run that covers every rotation costs the same
    under every seed, while each job's input still differs."""
    starts = round_rng("groebner-batch", seed, "start")
    rng = round_rng("groebner-batch", seed, index)
    jobs = []
    for label, family, n, modulus, copies in (GROEBNER_MIX_TINY if tiny
                                              else GROEBNER_MIX):
        start = starts.randrange(len(family(n)[1]))
        jobs += [groebner_job(rng, label, family, n, modulus,
                              start + index * copies + copy)
                 for copy in range(copies)]
    rng.shuffle(jobs)
    return jobs


def groebner_warmup(seed: int):
    return groebner_job(round_rng("groebner-batch", seed, -1),
                        "katsura-2/QQ", katsura, 2, None, 0)


# -- Weyl algebras -----------------------------------------------------------


def random_weyl(rng, n: int, nterms: int, degree: int):
    """A random element of A_n with `nterms` terms of total degree <= degree."""
    terms = {}
    for _ in range(nterms):
        x = [0] * n
        y = [0] * n
        for _ in range(rng.randint(0, degree)):
            (x if rng.random() < 0.5 else y)[rng.randrange(n)] += 1
        coeff = rng.choice([-1, 1]) * rng.randint(1, 9)
        inner = terms.setdefault(tuple(x), {})
        inner[tuple(y)] = inner.get(tuple(y), 0) + coeff
    return {x: {y: c for y, c in inner.items() if c} for x, inner in terms.items()}


def random_linear_weyl(rng, n: int):
    """c0 + sum a_i x_i + sum b_i y_i with random nonzero coefficients."""
    zero = (0,) * n
    terms = {zero: {zero: rng.randint(0, 3)}}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms[e] = {zero: rng.choice([-1, 1]) * rng.randint(1, 5)}
        terms[zero][e] = rng.choice([-1, 1]) * rng.randint(1, 5)
    terms[zero] = {y: c for y, c in terms[zero].items() if c}
    return terms


def weyl_round(seed: int, index: int, tiny: bool = False):
    rng = round_rng("weyl-products", seed, index)

    def mul(n, nterms, degree, modulus=None):
        return {"kind": "mul", "n": n, "modulus": modulus,
                "u": random_weyl(rng, n, nterms, degree),
                "v": random_weyl(rng, n, nterms, degree)}

    def power(n, k, modulus=None):
        return {"kind": "pow", "n": n, "modulus": modulus, "k": k,
                "u": random_linear_weyl(rng, n)}

    def inner(n, nterms, degree):
        return {"kind": "inner", "n": n, "modulus": None,
                "u": random_weyl(rng, n, nterms, degree)}

    if tiny:
        jobs = [mul(1, 3, 3), power(2, 3), inner(1, 3, 2), mul(2, 3, 2, PRIME)]
    else:
        jobs = [
            mul(1, 10, 8), mul(1, 10, 8),
            mul(2, 10, 6), mul(2, 10, 6),
            mul(3, 10, 5), mul(3, 10, 5),
            power(2, 5 + index % 3), power(2, 5 + (index + 1) % 3),
            power(3, 4 + index % 3),
            inner(2, 10, 5), inner(3, 10, 5),
            mul(2, 10, 6, PRIME), power(3, 5, PRIME),
        ]
    rng.shuffle(jobs)
    return jobs


def weyl_warmup(seed: int):
    rng = round_rng("weyl-products", seed, -1)
    return {"kind": "mul", "n": 1, "modulus": None,
            "u": random_weyl(rng, 1, 3, 3), "v": random_weyl(rng, 1, 3, 3)}


# -- DSL sessions --------------------------------------------------------------


def _num(rng, lo=1, hi=9):
    return rng.randint(lo, hi)


def _poly_text(rng, names, degree, nterms):
    """A random nonzero polynomial as DSL text."""
    terms = {}
    for _ in range(nterms):
        e = [0] * len(names)
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(len(names))] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice([-1, 1]) * _num(rng)
    terms = {e: c for e, c in terms.items() if c} or {(0,) * len(names): 1}
    chunks = []
    for e, c in sorted(terms.items(), reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        chunks.append(f"{sign} {body}")
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _darboux_field(rng, shape):
    """F for d = d/dx + F d/dy from shapes whose bound-2 search is quick."""
    a, b = _num(rng), _num(rng)
    if shape == 0:
        return f"y^2 + {a}*x"
    if shape == 1:
        return f"{a}*y - {b}*x"
    return f"{a}*x*y + {b}*y^2"


def _linear_text(rng, shape):
    """A constant, or a linear polynomial in x, or in x and y."""
    k0, k1, k2 = _num(rng), _num(rng), _num(rng)
    return [f"{k0}", f"{k1}*x - {k0}", f"{k1}*x + {k2}*y - {k0}"][shape]


def _session(rng, shape: int, ideal: str, images: str) -> str:
    """Ring R = QQ[x, y], ideal I, quotient Q = R/I, a derivation d0 of R
    preserving I and its induced derivation d on Q, then every statement
    kind the workload exercises."""
    names = ("x", "y")
    lines = [
        "ring R = QQ[x, y]",
        f"ideal I in R : {ideal}",
        "quotient Q = R / I",
        f"der d0 on R : {images}",
        f"der d on Q : {images}",
        f"apply d {_poly_text(rng, names, 3, 4)}",
        "check dideal I d0",
        "dim I",
        "check dsimple Q d --dim1",
        f"ideal J in R : {ideal}, x - {_num(rng)}*y - {_num(rng)}",
        "gb J",
        f"member ({_poly_text(rng, names, 2, 3)})*(x - 1) in J with cofactors",
        f"member {_poly_text(rng, names, 2, 3)} in J with cofactors",
        "skew S = Q[t; d]",
        "check simple S",
        f"certificate {_poly_text(rng, names, 4, 4)} in R",
        f"darboux {_darboux_field(rng, shape)} bound 2 in R",
    ]
    return "\n".join(lines) + "\n"


def _ellipse_session(rng, variant, shape):
    a, b, c = _num(rng), _num(rng), _num(rng)
    k = _linear_text(rng, variant)
    return _session(rng, shape, f"{a}*x^2 + {b}*y^2 - {c}",
                    f"x -> {b}*({k})*y, y -> -{a}*({k})*x")


def _circle_session(rng, variant, shape):
    r, h = _num(rng), _linear_text(rng, variant)
    return _session(rng, shape, f"x^2 + y^2 - {r * r}",
                    f"x -> -({h})*y, y -> ({h})*x")


def _two_lines_session(rng, variant, shape):
    """y^2 - c^2: two parallel lines, a reducible (non-prime) ideal."""
    c = _num(rng)
    dx = ["1", f"{_num(rng)}", f"1 + {_num(rng)}*y"][variant]
    q = _linear_text(rng, (variant + 1) % 3)
    return _session(rng, shape, f"y^2 - {c * c}",
                    f"x -> {dx}, y -> ({q})*(y^2 - {c * c})")


def _crossing_lines_session(rng, variant, shape):
    """(x - a)(y - b): two crossing lines, a reducible (non-prime) ideal."""
    a, b = _num(rng), _num(rng)
    p = _linear_text(rng, variant)
    return _session(rng, shape, f"(x - {a})*(y - {b})",
                    f"x -> (x - {a})*({p}), y -> -(y - {b})*({p})")


SESSION_TEMPLATES = (_ellipse_session, _circle_session,
                     _two_lines_session, _crossing_lines_session)


SESSION_POOL = 48      # generated sessions per run: each template x variant 4 times
SESSIONS_PER_ROUND = 8


def generated_sessions(seed: int, tiny: bool = False):
    """The seeded session scripts of a run: (name, text) pairs.  Session i
    uses template i mod 4, variant (i // 4) mod 3 (the shape of the
    derivation's polynomial factor) and Darboux field shape
    (variant + i // 12) mod 3, so every pool has the same make-up and only
    the random coefficients and polynomials change with the seed."""
    rng = round_rng("session-replay", seed, 0)
    count = 2 if tiny else SESSION_POOL
    sessions = []
    for i in range(count):
        template = SESSION_TEMPLATES[i % len(SESSION_TEMPLATES)]
        name = f"gen{i}-{template.__name__.strip('_')}"
        variant = i // len(SESSION_TEMPLATES) % 3
        sessions.append((name, template(rng, variant, (variant + i // 12) % 3)))
    return sessions


def session_round(seed: int, index: int, tiny: bool = False):
    """The acceptance session and the next SESSIONS_PER_ROUND generated
    sessions of the pool, in a seeded order; the pool repeats every few
    rounds, so every session is run many times."""
    pool = [n for n, _ in generated_sessions(seed, tiny)]
    per_round = min(SESSIONS_PER_ROUND, len(pool))
    names = [ACCEPTANCE_SESSION] + [pool[(index * per_round + j) % len(pool)]
                                    for j in range(per_round)]
    rng = round_rng("session-replay", seed, index + 1)
    rng.shuffle(names)
    return [{"kind": "session", "name": n} for n in names]


def make_round(workload: str, seed: int, index: int, tiny: bool = False):
    if workload == "groebner-batch":
        return groebner_round(seed, index, tiny)
    if workload == "weyl-products":
        return weyl_round(seed, index, tiny)
    return session_round(seed, index, tiny)


def make_warmup(workload: str, seed: int):
    if workload == "groebner-batch":
        return groebner_warmup(seed)
    if workload == "weyl-products":
        return weyl_warmup(seed)
    return {"kind": "session", "name": ACCEPTANCE_SESSION}
