"""Randomized invariant suites, shared by the CLI check mode and the tests.

Each suite raises AssertionError on the first violated invariant, through
:func:`require`, which ``python -O`` does not strip; :func:`run_all`
collects one (name, passed, detail) row per suite, for the tests and the CLI
check mode alike, and runs about half of the suites in a forked child where
it can.  All randomness is seeded, so a run is reproducible.
"""

from __future__ import annotations

import marshal
import os
import random
from itertools import product
from math import comb

from .fgl import (
    additive_law,
    check_fgl_axioms,
    formal_inverse,
    logarithm,
    multiplicative_law,
    projective_space_class,
    universal_law,
    universal_log,
)
from .gring import GradedRingElement, _random_terms, random_homogeneous
from .motives import (
    Correspondence,
    TateMotive,
    _make,
    _units,
    compose,
    decompose_by_rank,
    duality_holds,
    group_ranks,
    identity_correspondence,
    is_idempotent,
    poincare_polynomial,
    projective_bundle_projectors,
    realize_table,
    split_idempotent,
    tensor_product,
    transpose,
    zero_correspondence,
)
from .series import TruncatedSeries
from .spaces import grassmannian, projective_space, quadric
from .theory import ProjectiveSpaceElement, chow, k0, projection_formula_holds, universal
from .dsl import parse_space, print_space


def require(condition, message: str) -> None:
    """Raise AssertionError with `message` unless `condition` holds.

    Unlike a bare ``assert`` this check cannot be switched off by the
    interpreter.
    """
    if not condition:
        raise AssertionError(message)


def random_motive(rng: random.Random, max_size=3, max_twist=3) -> TateMotive:
    return TateMotive(rng.randint(0, max_twist) for _ in range(rng.randint(0, max_size)))


def random_correspondence(rng, theory, source, target, degree) -> Correspondence:
    """A random morphism, drawn entry by entry into its twist blocks: target
    generator by target generator, then source generator by source generator."""
    ring, blocks = theory.ring, {}
    for t, height in target.histogram:
        for r, (s, width) in product(range(height), source.histogram):
            for c in range(width):
                for k, v in _random_terms(rng, ring, degree + s - t).items():
                    block = blocks.setdefault((t, s), {})
                    m = block.get(k) or block.setdefault(k, [[0] * width for _ in range(height)])
                    m[r][c] = v
    return _make(theory, source, target, degree, blocks)


def random_theories():
    return (chow(), k0(), universal(6))


def suite_graded_ring(rng) -> str:
    rings = [t.ring for t in random_theories()]
    for ring in rings:
        one = GradedRingElement.one(ring)
        zero = GradedRingElement.zero(ring)
        for _ in range(25):
            a = random_homogeneous(rng, ring, rng.randint(-3, 1))
            b = random_homogeneous(rng, ring, rng.randint(-3, 1))
            c = random_homogeneous(rng, ring, rng.randint(-3, 1))
            require((a + b) + c == a + (b + c), "ring addition is associative")
            require(a * b == b * a, "ring multiplication is commutative")
            require((a * b) * c == a * (b * c), "ring multiplication is associative")
            require(a * (b + c) == a * b + a * c, "multiplication distributes over addition")
            require(a * one == a and a + zero == a, "one and zero are neutral")
            # degrees read off the terms, so the carried degree tuples are checked too
            deg = ring.monomial_degree
            prod = a * b
            got = {deg(m) for m in prod.terms}
            allowed = {deg(m1) + deg(m2) for m1 in a.terms for m2 in b.terms}
            require(got <= allowed and sorted(got) == prod.degrees(),
                    "product degrees are sums of factor degrees")
    return "ring axioms and degree additivity"


def suite_fgl(rng) -> str:
    order = 8
    laws = (additive_law(order), multiplicative_law(order), universal_law(order))
    for law in laws:
        check_fgl_axioms(law)
        log = law.log
        exp = log.reversion()
        x = TruncatedSeries.variable(log.ring, ("x",), "x", order)
        require(log.substitute("x", exp) == x, "log(exp(x)) = x")
        require(exp.substitute("x", log) == x, "exp(log(x)) = x")
        inv = formal_inverse(law)
        xv = TruncatedSeries.variable(law.ring, ("x",), "x", order)
        require(law.apply(xv, inv).is_zero(), "F(x, inverse(x)) = 0")
        for n in range(0, order - 1):
            cls = projective_space_class(law, n)
            require(cls.is_homogeneous(-n), "[P^n] is homogeneous of degree -n")
    b = GradedRingElement.generator(k0().ring, "b")
    for n in range(0, order - 1):
        require(projective_space_class(laws[1], n) == b ** n, "multiplicative [P^n] = b^n")
    # the universal law carries its known logarithm; recompute it from the law
    require(logarithm(laws[2]) == universal_log(order), "universal log = x + sum m_i x^(i+1)")
    return "group law axioms, log/exp, inverses, projective classes"


def suite_theory(rng) -> str:
    for theory in random_theories():
        for _ in range(30):
            m = rng.randint(0, 4)
            degree = rng.randint(-2, m)
            coords = [
                random_homogeneous(rng, theory.ring, degree - i) for i in range(m + 1)
            ]
            u = ProjectiveSpaceElement(theory, m, coords)
            beta = random_homogeneous(rng, theory.ring, -rng.randint(0, 2))
            require(projection_formula_holds(u, beta), "projection formula")
            down = u.pushforward_to_point()
            require(down.is_homogeneous(degree - m), "push-forward lowers degree by m")
    return "projection formula and push-forward grading"


def suite_spaces(rng) -> str:
    builtins = [projective_space(n) for n in range(0, 7)]
    builtins += [quadric(d) for d in range(0, 5)]
    builtins += [grassmannian(d, n) for n in range(0, 7) for d in range(0, n + 1)]
    for s in builtins:
        s.dim()
        require(duality_holds(s), "codim route is the dual of the rank route")
        require(parse_space(print_space(s)) == s, "text round-trip")
    return "builder dimensions, route duality, text round-trip"


def suite_motive_category(rng) -> str:
    theories = random_theories()
    for _ in range(120):
        theory = theories[rng.randrange(len(theories))]
        a, b, c, d = (random_motive(rng) for _ in range(4))
        degrees = [rng.randint(-1, 2) for _ in range(3)]
        f = random_correspondence(rng, theory, a, b, degrees[0])
        g = random_correspondence(rng, theory, b, c, degrees[1])
        h = random_correspondence(rng, theory, c, d, degrees[2])
        require(compose(h, compose(g, f)) == compose(compose(h, g), f), "associativity")
        require(compose(identity_correspondence(theory, b), f) == f, "identity is a left unit")
        require(compose(f, identity_correspondence(theory, a)) == f, "identity is a right unit")
        dim_a = max(a.twists, default=0) + rng.randint(0, 1)
        dim_b = max(b.twists, default=0) + rng.randint(0, 1)
        dim_c = max(c.twists, default=0) + rng.randint(0, 1)
        ft = transpose(f, dim_a, dim_b)
        require(transpose(ft, dim_b, dim_a) == f, "transpose is an involution")
        require(ft.degree == dim_a + f.degree - dim_b, "transpose degree")
        gf_t = transpose(compose(g, f), dim_a, dim_c)
        require(gf_t == compose(ft, transpose(g, dim_b, dim_c)), "transpose of a composite")
        p, q = random_correspondence(rng, theory, a, b, 0), random_correspondence(rng, theory, b, c, 0)
        r, s = random_correspondence(rng, theory, a, b, 0), random_correspondence(rng, theory, b, c, 0)
        pr, qs = tensor_product(p, r), tensor_product(q, s)
        require(compose(qs, pr) == tensor_product(compose(q, p), compose(s, r)), "interchange")
    return "category, transpose and tensor interchange laws"


def random_block_idempotent(rng, theory, motive: TateMotive) -> Correspondence:
    """A twist-blocked scalar idempotent: conjugated 0/1 diagonals per block."""
    blocks = {}
    for t, size in motive.histogram:
        diag = [[1 if (i == j and rng.random() < 0.6) else 0 for j in range(size)] for i in range(size)]
        identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        basis, inverse = [row[:] for row in identity], [row[:] for row in identity]
        for _ in range(size):
            i, j = rng.randrange(size), rng.randrange(size)
            if i != j:  # add sign * row j to row i, and undo it on the inverse's columns
                sign = rng.choice((-1, 1))
                for k in range(size):
                    basis[i][k] += sign * basis[j][k]
                    inverse[k][j] -= sign * inverse[k][i]
        require(_mat_mul(inverse, basis) == identity, "inverse of the unimodular basis")
        blocks[t, t] = _mat_mul(_mat_mul(inverse, diag), basis)
    return _units(theory, motive, motive, blocks)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))] for i in range(n)]


def suite_idempotents(rng) -> str:
    theories = (chow(), k0())
    for _ in range(40):
        theory = theories[rng.randrange(2)]
        motive = random_motive(rng, max_size=4, max_twist=3)
        p = random_block_idempotent(rng, theory, motive)
        require(is_idempotent(p), "block projector is idempotent")
        cert = split_idempotent(p)
        identity = identity_correspondence(theory, cert.motive)
        require(compose(cert.retraction, cert.section) == identity, "retraction o section")
        require(compose(cert.section, cert.retraction) == p, "section o retraction")
        co = split_idempotent(identity_correspondence(theory, motive) - p)
        combined = sorted(cert.motive.twists + co.motive.twists)
        require(tuple(combined) == motive.twists, "image and complement split the motive")
    for n in range(0, 5):
        base = TateMotive((0,))
        projectors = projective_bundle_projectors(chow(), base, n + 1)
        total = projectors[0].source
        acc = zero_correspondence(chow(), total, total, 0)
        for i, p in enumerate(projectors):
            acc = acc + p
            for j, q in enumerate(projectors):
                if i != j:
                    require(compose(p, q).is_zero(), "bundle projectors are orthogonal")
            require(split_idempotent(p).motive == base.shifted(i), "bundle projector image")
        require(acc == identity_correspondence(chow(), total), "bundle projectors sum to 1")
    return "projector splitting certificates and bundle projectors"


def _require_counted_ranks(motive, theory, table):
    """The ranks counted from the Hilbert series equal the enumerated table."""
    require(group_ranks(motive, theory) == (table.ranks(), table.periodic),
            f"counted {theory.name} ranks")


def suite_realization(rng) -> str:
    for d in range(0, 6):
        q = quadric(d)
        motive = decompose_by_rank(q)
        table = realize_table(motive, chow())
        expected = {k: (2 if k == d else 1) for k in range(0, 2 * d + 1)}
        if d == 0:
            expected = {0: 2}
        require(table.ranks() == expected, "quadric Chow table")
        _require_counted_ranks(motive, chow(), table)
        k_table = realize_table(motive, k0())
        require(k_table.total_rank() == 2 * d + 2, "quadric K0 rank")
        _require_counted_ranks(motive, k0(), k_table)
    motive = decompose_by_rank(grassmannian(2, 4))
    _require_counted_ranks(motive, universal(6), realize_table(motive, universal(6)))
    for n in range(0, 7):
        for dd in range(0, n + 1):
            motive = decompose_by_rank(grassmannian(dd, n))
            coeffs = poincare_polynomial(motive)
            require(sum(coeffs) == comb(n, dd), "Grassmannian twist count is binomial")
    return "quadric tables and twist counts"


SUITES = (
    ("graded-ring", suite_graded_ring),
    ("fgl-engine", suite_fgl),
    ("theory", suite_theory),
    ("cellular-model", suite_spaces),
    ("motive-category", suite_motive_category),
    ("idempotent-splitting", suite_idempotents),
    ("realization", suite_realization),
)


# The suites a check request runs in a forked worker while its own process
# runs the rest: about 45 against 47 ms of cold CPU under Python 3.11.
_WORKER_GROUP = frozenset({"cellular-model", "motive-category", "realization"})


def _row(name, suite, seed):
    rng = random.Random(seed)
    try:
        return name, True, suite(rng)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the runner
        return name, False, f"{type(exc).__name__}: {exc}"


def run_all(seed: int = 0):
    """Run every suite; returns a list of (name, passed, detail) rows.

    Where `os.fork` exists the suites of `_WORKER_GROUP` run in a forked
    child, which sends its rows back through a pipe and ends with
    `os._exit`; a child that ends without sending them, killed or exited,
    leaves one FAIL row naming its exit status for each suite of its group.
    Without `os.fork`, or when it fails, every suite runs in this process."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork, or no process or memory to spare
        os.close(read)
        os.close(write)
        return [_row(name, suite, seed) for name, suite in SUITES]
    worker = [(name, suite) for name, suite in SUITES if name in _WORKER_GROUP]
    if pid == 0:  # the child never returns into its caller's code
        code = 1
        try:
            os.close(read)  # so that a write after the parent closed its end fails, not waits
            with open(write, "wb") as pipe:
                marshal.dump([_row(name, suite, seed) for name, suite in worker], pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            rows = [_row(name, suite, seed) for name, suite in SUITES if name not in _WORKER_GROUP]
            sent = pipe.read()
    finally:  # closed first, so that a child still writing stops
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        rows += marshal.loads(sent)
    else:
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        rows += [(name, False, f"the check worker {ended} before it reported") for name, _ in worker]
    by_name = {row[0]: row for row in rows}
    return [by_name[name] for name, _ in SUITES]
