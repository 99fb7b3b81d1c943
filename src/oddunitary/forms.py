"""Odd quadratic spaces: anti-Hermitian forms, Heisenberg group, form parameters.

A Heisenberg element is a pair (u, a) of a module vector and a ring scalar,
with composition (u, a) + (v, b) = (u + v, a + b + B(u, v)), negation
-(u, a) = (-u, -a + B(u, u)) and right action (u, a) <- b = (ub, bar(b) lam^-1 a b).
"""

from __future__ import annotations

import itertools

import numpy as np

from .report import (DEFAULT_CAP, DEFAULT_SEED, CapExceeded, Report, WorkbenchError,
                     cases_or_sample)
from .matrices import _readonly, mulmod_unpacked
from .rings import member, place_values

VECTOR_PAIRS = 10**5  # the most vector pairs that `verify_antihermitian` lists
PARAM_PAIRS = 4 * 10**6  # the most parameter pairs that `verify_form_parameter` lists
BLOCK = 2**12  # elements or pairs per array pass of a parameter sweep


class FormParameter:
    """`contains_batch(space, disp, scal)`: which (disp[c], scal[c]) of stacks
    (N, rank, k, k), (N, k, k) lie in it; `elements`: its sorted codes."""


class MinParameter(FormParameter):
    """{(0, a + bar(a))}: the smallest admissible parameter."""

    def contains_batch(self, space, disp, scal):
        r = space.ring
        return ~disp.any(axis=(1, 2, 3)) & member(r.lmin, r.arr_codes(scal))

    def elements(self, space, cap=DEFAULT_CAP):
        return space.ring.lmin  # the code of (0, s) is that of s


class MaxParameter(FormParameter):
    """{(u, a) : a - bar(a) = B(u, u)}: the largest admissible parameter."""

    def contains_batch(self, space, disp, scal):
        r = space.ring
        return (r.arr_add(scal, r.arr_neg(r.arr_bar(scal)))
                == space.form_arr(disp, disp)).all(axis=(-2, -1))

    def elements(self, space, cap=DEFAULT_CAP):
        total = space.ring.card ** (space.rank + 1)
        if total > cap:
            raise CapExceeded(f"maximal parameter needs {total} candidates")
        return space.select(range(space.heis_span()), self)


class ExplicitParameter(FormParameter):
    """The elements of the given codes of one space."""

    def __init__(self, codes):
        self.codes = _readonly(np.unique(np.asarray(codes, dtype=np.int64)))

    def contains_batch(self, space, disp, scal):
        return member(self.codes, space.heis_codes((disp, scal)))

    def elements(self, space, cap=DEFAULT_CAP):
        return self.codes


def blocks(cases):
    """`cases`, a range or an int64 array, as int64 arrays of at most BLOCK."""
    for start in range(0, len(cases), BLOCK):
        part = cases[start:start + BLOCK]
        yield np.arange(part.start, part.stop) if isinstance(part, range) else part


class OddQuadraticSpace:
    """Free right module with an anti-Hermitian Gram matrix and a form parameter."""

    def __init__(self, ring, gram, parameter=None):
        self.ring = ring
        self.gram = tuple(tuple(v for v in row) for row in gram)
        self.rank = len(self.gram)
        if any(len(row) != self.rank for row in self.gram):
            raise ValueError("gram matrix must be square")
        self.zero_vec = tuple(ring.zero for _ in range(self.rank))
        self.heis_identity = (self.zero_vec, ring.zero)
        self.parameter = parameter if parameter is not None else MinParameter()

    # -- form ------------------------------------------------------------

    def form(self, u, v):
        """B(u, v) = sum_{i,j} bar(u_i) lam^-1 G[i][j] v_j."""
        r = self.ring
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length does not match rank")
        lam_inv = r.lam_inv
        acc = r.zero
        for i, ui in enumerate(u):
            if ui == r.zero:
                continue
            bui = r.mul(r.bar(ui), lam_inv)
            for j, vj in enumerate(v):
                if vj == r.zero or self.gram[i][j] == r.zero:
                    continue
                acc = r.add(acc, r.prod(bui, self.gram[i][j], vj))
        return acc

    def form_arr(self, u, v):
        """`form` on stacks of vectors: int64 arrays (..., rank, k, k) as in
        `Ring.arr`, with broadcast leading axes, giving (..., k, k): the sum
        of bar(u_i) w_i for w = lam^-1 G v, one product for every v at once."""
        r, k, size = self.ring, self.ring.degree, self.rank * self.ring.degree
        gram = r.arr_mul(r.arr(r.lam_inv), r.arr(self.gram, (self.rank, self.rank)))
        count = int(np.prod(v.shape[:-3]))
        cols = np.moveaxis(v.reshape(count, size, k), 0, 1).reshape(size, count * k)
        w = mulmod_unpacked(r, gram.swapaxes(1, 2).reshape(size, size), cols)
        w = np.moveaxis(w.astype(np.int64).reshape(size, count, k), 1, 0)
        return r.arr_bar_dot(u, w.reshape(v.shape))

    def vector_count(self):
        return self.ring.card ** self.rank

    def vec_add(self, u, v):
        return tuple([self.ring.add(a, b) for a, b in zip(u, v)])

    def vec_neg(self, u):
        return tuple([self.ring.neg(a) for a in u])

    # -- Heisenberg group --------------------------------------------------

    def heis_add(self, xi, zeta):
        (u, a), (v, b) = xi, zeta
        r = self.ring
        return (self.vec_add(u, v), r.sum(a, b, self.form(u, v)))

    def heis_neg(self, xi):
        u, a = xi
        r = self.ring
        return (self.vec_neg(u), r.add(r.neg(a), self.form(u, u)))

    # -- Heisenberg codes: (u, a) has the scalar codes of u_1, ..., u_rank, a
    # as its digits in base card, so sorted codes are sorted (u, a) tuples

    def heis_span(self, times=1):
        """card^(rank + 1) codes; raises when `times` as many overflow int64."""
        span = self.ring.card ** (self.rank + 1)
        if times * span >= 2**63:
            raise WorkbenchError(f"codes over {self.ring!r} at rank {self.rank} exceed int64")
        return span

    def heis_codes(self, xi):
        """The codes of stacks xi = (u, a), (N, rank, k, k) and (N, k, k)."""
        self.heis_span()
        digits = self.ring.arr_codes(np.concatenate([xi[0], xi[1][:, None]], axis=1))
        return digits @ place_values(self.ring.card, self.rank + 1)

    def heis_arr(self, codes):
        """The stacks (u, a) of an int64 array of codes."""
        digits = [codes]
        for _ in range(self.rank):
            digits[:1] = np.divmod(digits[0], self.ring.card)
        x = self.ring.codes_arr(np.stack(digits, axis=1))
        return x[:, :-1], x[:, -1]

    def heis_rows(self, xs):
        """The stacks (u, a) of a list of elements given as ring values."""
        r = self.ring
        return (r.arr([u for u, _ in xs], (len(xs), self.rank)),
                r.arr([a for _, a in xs], (len(xs),)))

    def heis_element(self, code):
        """The element of one code, as ring values (u, a)."""
        card, code = self.ring.card, int(code)
        digits = [self.ring.scalar(code // card**e % card) for e in range(self.rank, -1, -1)]
        return tuple(digits[:-1]), digits[-1]

    def heis_add_arr(self, xi, zeta):
        r, (u, a), (v, b) = self.ring, xi, zeta
        return r.arr_add(u, v), r.arr_add(r.arr_add(a, b), self.form_arr(u, v))

    def heis_neg_arr(self, xi):
        r, (u, a) = self.ring, xi
        return r.arr_neg(u), r.arr_add(r.arr_neg(a), self.form_arr(u, u))

    def heis_act_arr(self, xi, b):
        r, (u, a) = self.ring, xi
        return r.arr_mul(u, b[:, None]), r.arr_mul(r.arr_bar(b), r.arr(r.lam_inv), a, b)

    # -- parameter ---------------------------------------------------------

    def param_contains(self, xi):  # one row of `contains_batch`
        return bool(self.parameter.contains_batch(self, *self.heis_rows([xi]))[0])

    def select(self, cases, param):
        """The codes of `cases` (as in `blocks`) whose elements lie in `param`."""
        return np.concatenate([c[param.contains_batch(self, *self.heis_arr(c))]
                               for c in blocks(cases)])


def zero_space(ring) -> OddQuadraticSpace:
    return OddQuadraticSpace(ring, (), MinParameter())


def verify_antihermitian(space, seed=DEFAULT_SEED) -> Report:
    """Gram anti-Hermitian on basis pairs; B(u, v) = -bar(B(v, u)) on vector pairs."""
    rep = Report()
    r = space.ring
    rank, gram = space.rank, space.gram
    rep.sweep("space.gram_antihermitian", itertools.product(range(rank), repeat=2),
              lambda p: gram[p[0]][p[1]] == r.neg(r.bar(gram[p[1]][p[0]])),
              lambda p: f"basis pair {p}", "basis pairs")
    # a pair (u, v) as the scalar codes of its 2 rank entries, listed in
    # lexicographic order; rng.choice(range(card)) draws the position that
    # rng.choice(elements) would
    pairs, used_seed = cases_or_sample(
        space.vector_count() ** 2, VECTOR_PAIRS,
        lambda: itertools.product(range(r.card), repeat=2 * rank),
        lambda rng: [rng.choice(range(r.card)) for _ in range(2 * rank)], seed)
    pairs = list(pairs)
    codes = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2, rank)
    u, v = r.codes_arr(codes[:, 0]), r.codes_arr(codes[:, 1])
    holds = (space.form_arr(u, v) == r.arr_neg(r.arr_bar(space.form_arr(v, u)))).all(axis=(1, 2))
    rep.sweep_blocks("space.form_skew_axiom", [(holds, lambda c: "(u, v) = {!r}".format(
        tuple(tuple(map(r.scalar, x)) for x in codes[c].tolist())))], "vector pairs", used_seed)
    return rep


def span_form_parameter(space, seeds, cap=DEFAULT_CAP) -> ExplicitParameter:
    """Smallest subgroup containing lmin and the seeds, stable under the
    action: each round acts on the elements that the last one found and adds
    them to every element, on both sides, until nothing is new (a finite set
    closed under the sum holds the negatives)."""
    r, xi = space.ring, space.heis_rows(seeds)
    bad = np.flatnonzero(~MaxParameter().contains_batch(space, *xi))[:1]
    if bad.size:
        raise WorkbenchError(f"seed {seeds[bad[0]]!r} lies outside the maximal parameter")
    current = new = np.union1d(r.lmin, space.heis_codes(xi))
    while new.size:
        found = []
        for p in blocks(range(len(new) * r.card)):
            x, b = space.heis_arr(new[p // r.card]), r.codes_arr(p % r.card)
            found.append(space.heis_act_arr(x, b))
        for p in blocks(range(len(new) * len(current))):
            i, j = np.divmod(p, len(current))
            x, y = space.heis_arr(new[i]), space.heis_arr(current[j])
            found += [space.heis_add_arr(x, y), space.heis_add_arr(y, x)]
        found = [c[~member(current, c)] for c in map(space.heis_codes, found)]
        new = np.unique(np.concatenate(found))
        current = np.union1d(current, new)
        if len(current) > cap:
            raise CapExceeded(f"parameter closure exceeded cap {cap}")
    return ExplicitParameter(current)


def verify_form_parameter(space, cap=DEFAULT_CAP, seed=DEFAULT_SEED) -> Report:
    """lmin <= L <= lmax, closure under the group operations, action
    stability: array sweeps over the listed codes, each case a flat index p
    split as (p // width, p % width), results tested by `contains_batch`."""
    rep, r, param = Report(), space.ring, space.parameter
    elems = param.elements(space, cap)
    n = len(elems)

    def sweep(check, cases, width, holds, witness, unit, used_seed=None):
        rep.sweep_blocks(check, ((holds(*ij), lambda k, ij=ij: witness(*(x[k] for x in ij)))
                                 for ij in (np.divmod(p, width) for p in blocks(cases))),
                         unit, used_seed)

    def arr(i):  # the elements at positions i
        return space.heis_arr(elems[i])

    def run(i):  # the elements at a run of positions i[0] <= ... <= i[-1], each decoded once
        return tuple(x[i - i[0]] for x in space.heis_arr(elems[i[0]:i[-1] + 1]))

    def inside(xi):
        return param.contains_batch(space, *xi)

    named = space.heis_element
    sweep("param.contains_min", r.lmin, 1, lambda s, _: inside(space.heis_arr(s)),
          lambda s, _: f"(0, {r.scalar(int(s))!r})", "scalars")
    sweep("param.inside_max", range(n), 1,
          lambda i, _: MaxParameter().contains_batch(space, *arr(i)),
          lambda i, _: repr(named(elems[i])), "elements")
    sweep("param.closed_under_neg", range(n), 1,
          lambda i, _: inside(space.heis_neg_arr(arr(i))),
          lambda i, _: repr(named(elems[i])), "elements")
    pairs, used_seed = cases_or_sample(
        n * n, PARAM_PAIRS, lambda: range(n * n),
        lambda rng: rng.choice(range(n)) * n + rng.choice(range(n)), seed)
    sweep("param.closed_under_add", pairs if used_seed is None else np.fromiter(pairs, np.int64),
          n, lambda i, j: inside(space.heis_add_arr(arr(i), arr(j))),
          lambda i, j: repr((named(elems[i]), named(elems[j]))), "pairs", used_seed)
    sweep("param.action_stable", range(n * r.card), r.card,
          lambda i, b: inside(space.heis_act_arr(run(i), r.codes_arr(b))),
          lambda i, b: repr((named(elems[i]), r.scalar(int(b)))), "pairs")
    return rep
