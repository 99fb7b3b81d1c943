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

VECTOR_PAIRS = 10**5  # the most vector pairs that `verify_antihermitian` lists
PARAM_PAIRS = 4 * 10**6  # the most parameter pairs that `verify_form_parameter` lists


class FormParameter:
    def contains(self, space, xi) -> bool:
        raise NotImplementedError

    def contains_batch(self, space, disp, scal):
        """`contains` on each (disp[c], scal[c]) of the stacks (N, rank, k, k)
        and (N, k, k) laid out as in `Ring.arr`, as a boolean array: each row
        back to ring values (`arr_codes`, then `scalar`), one `contains` each."""
        r = space.ring
        return np.array([self.contains(space, (tuple([r.scalar(c) for c in u]), r.scalar(t)))
                         for u, t in zip(r.arr_codes(disp).tolist(), r.arr_codes(scal).tolist())],
                        dtype=bool)

    def elements(self, space, cap=DEFAULT_CAP) -> frozenset:
        raise NotImplementedError


class MinParameter(FormParameter):
    """{(0, a + bar(a))}: the smallest admissible parameter."""

    def contains(self, space, xi):
        u, a = xi
        return u == space.zero_vec and a in space.ring.lmin_scalars

    def elements(self, space, cap=DEFAULT_CAP):
        return frozenset((space.zero_vec, s) for s in space.ring.lmin_scalars)


class MaxParameter(FormParameter):
    """{(u, a) : a - bar(a) = B(u, u)}: the largest admissible parameter."""

    def contains(self, space, xi):
        u, a = xi
        r = space.ring
        return r.sub(a, r.bar(a)) == space.form(u, u)

    def elements(self, space, cap=DEFAULT_CAP):
        total = space.ring.card ** (space.rank + 1)
        if total > cap:
            raise CapExceeded(f"maximal parameter needs {total} candidates")
        return frozenset(
            (u, a)
            for u in space.vectors()
            for a in space.ring.elements()
            if self.contains(space, (u, a))
        )


class ExplicitParameter(FormParameter):
    def __init__(self, elems):
        self.set = frozenset(elems)

    def contains(self, space, xi):
        return xi in self.set

    def elements(self, space, cap=DEFAULT_CAP):
        return self.set


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
        `Ring.arr`, giving (..., k, k)."""
        r = self.ring
        gram = r.arr(self.gram, (self.rank, self.rank))
        bu = r.arr_mul(r.arr_bar(u), r.arr(r.lam_inv))
        # [..., i, j] = bar(u_i) lam^-1 G[i][j] v_j
        terms = r.arr_mul(r.arr_mul(bu[..., :, None, :, :], gram), v[..., None, :, :, :])
        return terms.sum(axis=(-4, -3)) % r.base_modulus

    def vectors(self):
        return (
            tuple(v)
            for v in itertools.product(list(self.ring.elements()), repeat=self.rank)
        )

    def vector_count(self):
        return self.ring.card ** self.rank

    def vec_add(self, u, v):
        return tuple([self.ring.add(a, b) for a, b in zip(u, v)])

    def vec_neg(self, u):
        return tuple([self.ring.neg(a) for a in u])

    def vec_scale(self, u, b):
        """u * b with the scalar on the right."""
        return tuple([self.ring.mul(a, b) for a in u])

    # -- Heisenberg group --------------------------------------------------

    def heis_add(self, xi, zeta):
        (u, a), (v, b) = xi, zeta
        r = self.ring
        return (self.vec_add(u, v), r.sum(a, b, self.form(u, v)))

    def heis_neg(self, xi):
        u, a = xi
        r = self.ring
        return (self.vec_neg(u), r.add(r.neg(a), self.form(u, u)))

    def heis_act(self, xi, b):
        u, a = xi
        r = self.ring
        return (self.vec_scale(u, b), r.prod(r.bar(b), r.lam_inv, a, b))

    # -- parameter ---------------------------------------------------------

    def param_contains(self, xi):
        return self.parameter.contains(self, xi)


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
    # rng.choice(range(card)) draws the position that rng.choice(elements) would
    pairs, used_seed = cases_or_sample(
        space.vector_count() ** 2, VECTOR_PAIRS,
        lambda: itertools.product(space.vectors(), repeat=2),
        lambda rng: tuple(tuple(r.scalar(rng.choice(range(r.card))) for _ in range(rank))
                          for _ in range(2)),
        seed)
    rep.sweep("space.form_skew_axiom", pairs,
              lambda p: space.form(*p) == r.neg(r.bar(space.form(p[1], p[0]))),
              lambda p: f"(u, v) = {p!r}", "vector pairs", used_seed)
    return rep


def span_form_parameter(space, seeds, cap=DEFAULT_CAP) -> ExplicitParameter:
    """Smallest subgroup containing lmin and the seeds, stable under the action."""
    for s in seeds:
        if not MaxParameter().contains(space, s):
            raise WorkbenchError(f"seed {s!r} lies outside the maximal parameter")
    ring_elems = list(space.ring.elements())
    current = set(MinParameter().elements(space))
    current.add(space.heis_identity)
    current.update(tuple(s) if not isinstance(s, tuple) else s for s in seeds)
    while True:
        new = {space.heis_neg(x) for x in current}
        new.update(space.heis_act(x, b) for x in current for b in ring_elems)
        new.update(space.heis_add(x, y) for x in current for y in current)
        new -= current
        if not new:
            break
        current |= new
        if len(current) > cap:
            raise CapExceeded(f"parameter closure exceeded cap {cap}")
    return ExplicitParameter(current)


def verify_form_parameter(space, cap=DEFAULT_CAP, seed=DEFAULT_SEED) -> Report:
    """lmin <= L <= lmax, closure under the group operations, action stability."""
    rep = Report()
    elems = space.parameter.elements(space, cap)
    zero = space.zero_vec
    rep.sweep("param.contains_min", space.ring.lmin_scalars, lambda s: (zero, s) in elems,
              lambda s: f"(0, {s!r})", "scalars")
    rep.sweep("param.inside_max", elems, lambda x: MaxParameter().contains(space, x),
              unit="elements")
    rep.sweep("param.closed_under_neg", elems, lambda x: space.heis_neg(x) in elems,
              unit="elements")
    listed = sorted(elems)
    pairs, used_seed = cases_or_sample(
        len(elems) ** 2, PARAM_PAIRS, lambda: itertools.product(elems, repeat=2),
        lambda rng: (rng.choice(listed), rng.choice(listed)), seed)
    rep.sweep("param.closed_under_add", pairs, lambda p: space.heis_add(*p) in elems,
              unit="pairs", seed=used_seed)
    rep.sweep("param.action_stable", itertools.product(elems, space.ring.elements()),
              lambda p: space.heis_act(*p) in elems, unit="pairs")
    return rep
