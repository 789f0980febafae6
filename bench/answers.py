"""Expected answers for the benchmark, computed apart from the package.

Nothing here imports ``motivec``.  A motive is a twist histogram
(``Counter`` from twist to multiplicity); the built-in families come from
closed forms and Gaussian binomials, and the graded groups from twist
multiplicities and partition counts.  ``expected_output`` turns a
histogram into the document the CLI should print for a request.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache


def projective_twists(n: int) -> Counter:
    """P^n: one twist in each degree 0..n."""
    return Counter(range(n + 1))


def quadric_twists(d: int) -> Counter:
    """The split 2d-dimensional quadric: 0..2d once, the middle twice."""
    if d == 0:
        return Counter({0: 2})
    out = Counter(range(2 * d + 1))
    out[d] += 1
    return out


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the q-binomial [n choose k]_q, by the q-Pascal rule
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    left = gaussian_binomial(n - 1, k - 1)
    right = gaussian_binomial(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return tuple(out)


def grassmannian_twists(d: int, n: int) -> Counter:
    """Gr(d, n): twist multiplicities are the Gaussian binomial coefficients."""
    return Counter({t: c for t, c in enumerate(gaussian_binomial(n, d)) if c})


@lru_cache(maxsize=None)
def partition_counts(limit: int) -> tuple[int, ...]:
    """p(0), ..., p(limit): unrestricted partition counts."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return tuple(p)


def reflect(hist: Counter, dim: int) -> Counter:
    """The twist histogram mirrored through the dimension."""
    return Counter({dim - t: c for t, c in hist.items()})


def expand(hist: Counter) -> list[int]:
    """The sorted twist list of a histogram."""
    return [t for t in sorted(hist) for _ in range(hist[t])]


def group_ranks(hist: Counter, theory: str) -> dict | int:
    """Graded ranks of a motive with the given twists.

    ``chow``: the rank in degree k is the multiplicity of twist k.
    ``k0``: periodic, one rank equal to the number of twists (an int).
    ``universal:N``: degrees [max_twist - N, max_twist], where the rank in
    degree k sums p(t - k) over the twists t >= k; every generator of the
    truncated ring has degree -1..-N, so the ring's degree -j part has
    p(j) monomials for j <= N.
    """
    if theory == "chow":
        return {t: c for t, c in sorted(hist.items()) if c}
    if theory == "k0":
        return sum(hist.values())
    bound = int(theory.split(":", 1)[1])
    high = max(hist)
    p = partition_counts(bound)
    ranks = {}
    for k in range(high - bound, high + 1):
        rank = sum(c * p[t - k] for t, c in hist.items() if t >= k)
        if rank:
            ranks[k] = rank
    return ranks


def _groups_text(ranks) -> list[str]:
    if isinstance(ranks, int):
        return [f"rank {ranks}"]
    return [f"{k}: {r}" for k, r in ranks.items()]


def _groups_json(ranks) -> dict:
    if isinstance(ranks, int):
        return {"*": ranks}
    return {str(k): r for k, r in ranks.items()}


def expected_output(space: str, theory: str, mode: str, fmt: str, dim: int,
                    by_rank: Counter, by_codim: Counter):
    """The answer the CLI must give: a text string, or a JSON document.

    ``by_rank`` and ``by_codim`` are the two decomposition routes, computed
    by the caller independently of each other.
    """
    doc = {"space": space, "theory": theory, "dim": dim}
    if mode == "motive":
        doc["twists"] = expand(by_rank)
        lines = [" ".join(map(str, doc["twists"]))]
    elif mode == "poincare":
        doc["poincare"] = [by_rank.get(k, 0) for k in range(max(by_rank) + 1)]
        lines = [" ".join(map(str, doc["poincare"]))]
    elif mode == "groups":
        ranks = group_ranks(by_rank, theory)
        doc["groups"] = _groups_json(ranks)
        lines = _groups_text(ranks)
    elif mode == "dual":
        ranks = group_ranks(by_codim, theory)
        doc["twists"] = expand(by_codim)
        doc["groups"] = _groups_json(ranks)
        doc["duality_ok"] = True
        lines = [" ".join(map(str, doc["twists"]))] + _groups_text(ranks) + ["duality_ok: true"]
    else:
        raise ValueError(f"no expected output for mode {mode!r}")
    if fmt == "json":
        return doc
    return "\n".join(lines) + "\n"
