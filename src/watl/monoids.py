"""Timed valuation monoids and product valuation structures.

A timed valuation monoid supplies a commutative aggregation ``plus`` with
neutral ``zero`` and a global valuation ``val`` mapping a timed sequence
of weight pairs to a single value.  The pair at position i is
(m_i, m'_i): m_i is the rate charged while waiting (per time unit) and
m'_i the discrete weight of the step itself.

Every shipped monoid gives its valuation as a step-wise fold over the
delays (``step_fold``) whose steps distribute over ``plus``; ``val``
runs it along one sequence, and behaviors fold it over automaton
configurations instead of over runs.  The folds of sum, avg and prod
run exactly on ints over one common denominator per call; the
discounting fold runs on mpf, and only discounting imports mpmath.

Product valuation monoids additionally carry a second operation
``diamond`` with unit ``one``; they back the weighted logic semantics.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import DomainError
from .weights import (INF, Infinity, Weight, _is_mpf, common_denominator, delay_ticks,
                      is_finite, scaled, to_mpf)

# Working precision for the discounting valuation: comfortably past the
# 1e-9 comparison tolerance used for its values.
_DISC_DPS = 50


@dataclass(frozen=True)
class WeightPairWord:
    """Non-empty timed sequence of weight pairs ((m, m'), t)."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("weight-pair words are non-empty")
        fixed = []
        for (m, mp), t in self.entries:
            t = t if isinstance(t, Fraction) else Fraction(t)
            if t < 0:
                raise ValueError("negative duration in weight-pair word")
            fixed.append(((m, mp), t))
        object.__setattr__(self, "entries", tuple(fixed))

    @property
    def duration(self) -> Fraction:
        return sum((t for _, t in self.entries), Fraction(0))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class TimedValuationMonoid:
    """Base class; concrete monoids override plus, step_fold (or val
    alone, for a monoid whose valuation has no step-wise form) and the
    flags."""

    id: str = "?"
    idempotent: bool = False
    location_independent: bool = False
    # None means values are exact; otherwise compare within tolerance.
    tolerance: Optional[float] = None

    @property
    def zero(self) -> Weight:
        raise NotImplementedError

    def plus(self, x, y):
        raise NotImplementedError

    def step_fold(self, delays) -> Optional["StepFold"]:
        """The valuation as a step-wise fold over the given delays, or None.

        Behaviors over a monoid without one are evaluated by enumerating
        runs and applying ``val`` to each.
        """
        return None

    def val(self, word: WeightPairWord):
        delays = [t for _, t in word]
        fold = self.step_fold(delays)
        if fold is None:
            raise NotImplementedError
        return fold.value([charge for charge, _ in word], delay_ticks(delays))

    def contains(self, x) -> bool:
        raise NotImplementedError

    def require(self, x, what="weight"):
        if not self.contains(x):
            raise DomainError(f"{what} {x!r} outside domain of monoid {self.id}")

    def eq(self, x, y) -> bool:
        if isinstance(x, Infinity) or isinstance(y, Infinity):
            return x == y
        if self.tolerance is None:
            return x == y
        return abs(to_mpf(x) - to_mpf(y)) <= self.tolerance

    def sample(self, rng: random.Random) -> Weight:
        raise NotImplementedError

    def sample_time(self, rng: random.Random) -> Fraction:
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(0, 12), rng.randint(1, 4))

    def sample_word(self, rng: random.Random, max_len: int = 4) -> WeightPairWord:
        n = rng.randint(1, max_len)
        return WeightPairWord(tuple(
            ((self.sample(rng), self.sample(rng)), self.sample_time(rng))
            for _ in range(n)
        ))

    def __repr__(self):
        return f"<monoid {self.id}>"


def _exact(x):
    """An mpf as the Fraction of its exact binary value; any other weight
    unchanged."""
    if _is_mpf(x):
        import mpmath
        if mpmath.isfinite(x):
            return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    return x


def _min_plus(x, y):
    # min with INF as neutral, over rationals and the infinities
    if isinstance(x, Infinity) and x.sign > 0:
        return y
    if isinstance(y, Infinity) and y.sign > 0:
        return x
    return x if x <= y else y


def _discount_plus(x, y):
    # _min_plus across Fraction/mpf/Infinity.  mpmath cannot order an mpf
    # against a Fraction, so mixed pairs are compared exactly, and the
    # smaller operand is returned unchanged.
    if isinstance(x, Infinity) and x.sign > 0:
        return y
    if isinstance(y, Infinity) and y.sign > 0:
        return x
    if _is_mpf(x) != _is_mpf(y):
        return x if _exact(x) <= _exact(y) else y
    return x if x <= y else y


class StepFold:
    """A monoid's valuation taken one step at a time over fixed delays.

    Before the first step, ``prepare(charges, ticks)`` is called once with
    the charges of every move (the (m, m') pairs the steps may charge) and
    the delays' ``weights.delay_ticks``; it returns the charges in the form
    ``step`` takes, in the same order.  ``step(p, i, c)`` extends the
    partial value p of a run prefix by step i, which charges the prepared
    charge c: rate m over the i-th delay and discrete weight m'.  ``plus``
    merges the partial values of prefixes that end in the same
    configuration, and ``finish`` turns a partial value into a value of
    the monoid.  Because step and finish distribute over plus, folding per
    configuration gives the plus-sum of val over all runs.  Enter the fold
    as a context manager while stepping (the discounting fold sets its
    working precision there).

    This base class prepares nothing: each charge is taken as it is.  The
    folds of sum, avg and prod prepare their charges as ints over one
    common denominator and run exactly on ints.
    """

    start = None

    def __init__(self, delays):
        self.delays = tuple(delays)

    def prepare(self, charges, ticks) -> list:
        return charges

    def step(self, partial, i, charge):
        raise NotImplementedError

    def plus(self, x, y):
        raise NotImplementedError

    def finish(self, partial):
        return partial

    def value(self, charges, ticks):
        """The value of the one run charging the given charges in order:
        prepare, every step, then finish, inside the fold's context."""
        with self:
            partial = self.start
            for i, charge in enumerate(self.prepare(charges, ticks)):
                partial = self.step(partial, i, charge)
            return self.finish(partial)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _scaled_weight(x, scale: int):
    return scaled(x, scale) if is_finite(x) else x


class _SumFold(StepFold):
    """The min-plus fold of ``sum``, exact on ints.

    ``prepare`` picks the scale D, the lcm of the delays' unit times the
    rates' denominators and of the discrete weights' denominators.  A
    partial value p stands for p/D: step i adds r·t_i + w, with t_i the
    i-th delay in units, r = m·D/unit and w = m'·D, all ints.  Infinite
    charges are kept as they are, so INF absorbs as it does in Fraction
    arithmetic and, the zero of min, compares above every int.  Only
    ``finish`` builds a Fraction.
    """

    start = 0

    def prepare(self, charges, ticks) -> list:
        unit, self.steps = ticks
        rates = common_denominator(m for m, _ in charges if is_finite(m))
        self.scale = common_denominator((mp for _, mp in charges if is_finite(mp)),
                                        unit * rates)
        per_unit = self.scale // unit
        return [(_scaled_weight(m, per_unit), _scaled_weight(mp, self.scale))
                for m, mp in charges]

    def step(self, partial, i, charge):
        rate, weight = charge
        return partial + rate * self.steps[i] + weight

    plus = staticmethod(min)

    def finish(self, partial):
        if isinstance(partial, Infinity):
            return partial
        return Fraction(partial, self.scale)


class _AverageFold(_SumFold):
    """The sum fold divided by the (positive) duration of the word."""

    def prepare(self, charges, ticks) -> list:
        unit, steps = ticks
        self.duration = Fraction(sum(steps), unit)
        return super().prepare(charges, ticks)

    def finish(self, partial):
        value = super().finish(partial)
        return value if isinstance(value, Infinity) else value / self.duration


_NO_RATES = frozenset()


class _UniformRateFold(StepFold):
    """The average over a word of zero duration.

    A run's value is its first rate when every rate it charges equals that
    finite rate and every discrete weight is 0, and inf otherwise.  The
    partial value of a configuration is the set of rates r such that some
    run prefix into it charged (r, 0) at every step: prefixes charging
    different rates can meet in one configuration, and only those whose
    rate equals the next step's can go on.
    """

    start = _NO_RATES

    def step(self, partial, i, charge):
        m, mp = charge
        if mp == 0 and is_finite(m) and (i == 0 or m in partial):
            return frozenset((m,))
        return _NO_RATES

    def plus(self, x, y):
        return x | y

    def finish(self, partial):
        return min(partial) if partial else INF


def _mpf_weight(x):
    return to_mpf(x) if is_finite(x) else x


class _DiscountFold(StepFold):
    """Min-plus over mpf: step i adds its discounted charge, whose factors
    lam^t_i and lam^(t_1 + ... + t_(i-1)) depend only on the word.  They
    are computed once per word, when the first finite step is taken."""

    def __init__(self, lam: Fraction, delays):
        super().__init__(delays)
        self.lam = lam
        self._steps = None
        self.start = to_mpf(0)

    def _factors(self) -> list:
        import mpmath
        steps = []
        with mpmath.workdps(_DISC_DPS):
            lam = to_mpf(self.lam)
            log_lam = mpmath.log(lam)
            factor = mpmath.mpf(1)
            for t in self.delays:
                decay = mpmath.power(lam, to_mpf(t))
                steps.append((factor, (decay - 1) / log_lam, decay))
                factor *= decay
        return steps

    def prepare(self, charges, ticks) -> list:
        return [(_mpf_weight(m), _mpf_weight(mp)) for m, mp in charges]

    plus = staticmethod(_discount_plus)

    def step(self, partial, i, charge):
        # Infinite components absorb, matching x * inf = inf even at t = 0.
        m, mp = charge
        if isinstance(partial, Infinity) or isinstance(m, Infinity) or isinstance(mp, Infinity):
            return INF
        if self._steps is None:
            self._steps = self._factors()
        factor, rate_part, decay = self._steps[i]
        return partial + factor * (rate_part * m + decay * mp)

    def __enter__(self):
        import mpmath
        self._precision = mpmath.workdps(_DISC_DPS)
        self._precision.__enter__()
        return self

    def __exit__(self, *exc):
        return self._precision.__exit__(*exc)


class _ProductFold(StepFold):
    """(+, x) over the discrete weights, exact on ints.

    A weight outside the domain is prepared as it is and refused by the
    first step that charges it, so a weight that no run takes is never
    refused."""

    start = 1

    def __init__(self, monoid, delays):
        super().__init__(delays)
        self.monoid = monoid

    def prepare(self, charges, ticks) -> list:
        contains = self.monoid.contains
        return [int(mp) if contains(mp) else mp for _, mp in charges]

    def step(self, partial, i, weight):
        if weight.__class__ is not int:
            self.monoid.require(weight, "discrete weight")
        return partial * weight

    plus = staticmethod(operator.add)

    def finish(self, partial):
        return Fraction(partial)


def _is_number(value, kinds) -> bool:
    """An instance of one of the kinds; True and False, which Python
    counts as ints, are not weights."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class _MinPlusMonoid(TimedValuationMonoid):
    """The part the sum, average and discounted monoids share: rationals
    and inf under min, whose neutral element inf is the zero."""

    idempotent = True
    location_independent = False

    @property
    def zero(self):
        return INF

    plus = staticmethod(_min_plus)

    def contains(self, x):
        return x is INF or _is_number(x, (Fraction, int))

    def sample(self, rng):
        if rng.random() < 0.08:
            return INF
        return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


class SumMonoid(_MinPlusMonoid):
    """(R ∪ {inf}, min, sum of m_i * t_i + m'_i, inf)."""

    id = "sum"

    def step_fold(self, delays):
        return _SumFold(delays)


class AvgMonoid(_MinPlusMonoid):
    """(R ∪ {inf}, min, duration-average of the sum valuation, inf).

    For zero total duration the average is m_1 when all rates agree on a
    finite value and every discrete weight is 0, and inf otherwise.
    """

    id = "avg"

    def step_fold(self, delays):
        delays = tuple(delays)
        if any(delays):
            return _AverageFold(delays)
        return _UniformRateFold(delays)


class DiscountMonoid(_MinPlusMonoid):
    """Discounted sum with rate lam in (0,1), computed in high precision.

    While waiting t time units under rate m the accumulated weight is the
    integral of m * lam^tau, i.e. m * (lam^t - 1) / ln lam; the discrete
    weight m' is then discounted by lam^t.  Each step's contribution is
    further discounted by lam^(elapsed time before the step).
    """

    tolerance = 1e-9

    def __init__(self, lam: Fraction):
        try:
            lam = Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"malformed discount factor {lam!r}") from None
        if not (0 < lam < 1):
            raise DomainError(f"discount factor must satisfy 0 < lam < 1, got {lam}")
        self.lam = lam
        self.id = f"disc:{lam}"

    plus = staticmethod(_discount_plus)

    def contains(self, x):
        return super().contains(x) or _is_mpf(x)

    def step_fold(self, delays):
        return _DiscountFold(self.lam, delays)


class ProductMonoid(TimedValuationMonoid):
    """(N, +, product of the discrete weights, 0).

    Not idempotent and location independent: the counting monoid used to
    witness why intersection needs idempotence or unambiguity.
    """

    id = "prod"
    idempotent = False
    location_independent = True

    @property
    def zero(self):
        return Fraction(0)

    def plus(self, x, y):
        return x + y

    def contains(self, x):
        return _is_number(x, (Fraction, int)) and x == int(x) and x >= 0

    def step_fold(self, delays):
        return _ProductFold(self, delays)

    def sample(self, rng):
        return Fraction(rng.randint(0, 6))


class TimedPvMonoid(TimedValuationMonoid):
    """A timed valuation monoid with a product operation and its unit."""

    def __init__(self, base: TimedValuationMonoid, diamond: Callable, one: Weight, id: str):
        self.base = base
        self._diamond = diamond
        self.one = one
        self.id = id
        self.idempotent = base.idempotent
        self.location_independent = base.location_independent
        self.tolerance = base.tolerance

    @property
    def zero(self):
        return self.base.zero

    def plus(self, x, y):
        return self.base.plus(x, y)

    def val(self, word):
        return self.base.val(word)

    def step_fold(self, delays):
        return self.base.step_fold(delays)

    def contains(self, x):
        return self.base.contains(x)

    def diamond(self, x, y):
        return self._diamond(x, y)

    def sample(self, rng):
        return self.base.sample(rng)


def _plus_arith(x, y):
    # Arithmetic addition with inf absorbing; the diamond of the
    # rational pv-monoids.
    return x + y


def sum_over(monoid: TimedValuationMonoid, values: Iterable) -> Weight:
    """Fold plus over the values starting from zero."""
    total = monoid.zero
    for v in values:
        total = monoid.plus(total, v)
    return total


def valuate(monoid: TimedValuationMonoid, word: WeightPairWord) -> Weight:
    """Apply the monoid's global valuation to a weight-pair word."""
    return monoid.val(word)


def _pv(base: TimedValuationMonoid, id: str) -> TimedPvMonoid:
    return TimedPvMonoid(base, _plus_arith, Fraction(0), id)


_FACTORIES = {
    "sum": lambda arg: SumMonoid(),
    "avg": lambda arg: AvgMonoid(),
    "disc": lambda arg: DiscountMonoid(arg),
    "prod": lambda arg: ProductMonoid(),
    "sum0": lambda arg: _pv(SumMonoid(), "sum0"),
    "avg0": lambda arg: _pv(AvgMonoid(), "avg0"),
    "disc0": lambda arg: _pv(DiscountMonoid(arg), f"disc0:{Fraction(arg)}"),
}


def register_monoid(name: str, factory: Callable) -> None:
    """Register a custom monoid factory under a new id.

    The factory receives the (string) parameter after the colon, or None.
    Run check_axioms before trusting a custom instance.
    """
    if name in _FACTORIES:
        raise ValueError(f"monoid id {name!r} already registered")
    _FACTORIES[name] = factory


def monoid_from_id(identifier: str) -> TimedValuationMonoid:
    """Resolve 'sum', 'avg', 'disc:LAM', 'prod' and pv ids 'sum0', 'avg0', 'disc0:LAM'."""
    name, _, arg = identifier.partition(":")
    if name not in _FACTORIES:
        raise DomainError(f"unknown monoid id {identifier!r}")
    if name in ("disc", "disc0") and not arg:
        raise DomainError(f"monoid {name!r} needs a discount factor, e.g. {name}:1/2")
    return _FACTORIES[name](arg or None)


@dataclass
class AxiomReport:
    """Outcome of randomized axiom checking with failure witnesses."""

    monoid_id: str
    samples: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def _pairs_with_rates(word: WeightPairWord, rates) -> WeightPairWord:
    entries = tuple(((m, mp), t) for ((_, mp), t), m in zip(word.entries, rates))
    return WeightPairWord(entries)


def check_axioms(monoid: TimedValuationMonoid, samples: int = 1000, seed: int = 0) -> AxiomReport:
    """Randomized check of the declared algebraic laws.

    Checks plus associativity/commutativity/neutrality always, the
    idempotence and location-independence flags as declared, and the
    product-operation laws when the monoid carries one.  Failures are
    reported with witnesses rather than raised.
    """
    rng = random.Random(seed)
    failures = []

    def note(law, witness):
        if len(failures) < 20:
            failures.append((law, witness))

    for _ in range(samples):
        x, y, z = monoid.sample(rng), monoid.sample(rng), monoid.sample(rng)
        if not monoid.eq(monoid.plus(monoid.plus(x, y), z), monoid.plus(x, monoid.plus(y, z))):
            note("plus-associative", f"x={x} y={y} z={z}")
        if not monoid.eq(monoid.plus(x, y), monoid.plus(y, x)):
            note("plus-commutative", f"x={x} y={y}")
        if not monoid.eq(monoid.plus(x, monoid.zero), x):
            note("plus-neutral", f"x={x}")
        if monoid.idempotent and not monoid.eq(monoid.plus(x, x), x):
            note("plus-idempotent", f"x={x}")
        if monoid.location_independent:
            word = monoid.sample_word(rng)
            rates = [monoid.sample(rng) for _ in word.entries]
            if not monoid.eq(monoid.val(word), monoid.val(_pairs_with_rates(word, rates))):
                note("location-independent", f"word={word.entries} rates={rates}")

    if isinstance(monoid, TimedPvMonoid):
        one = monoid.one
        for _ in range(samples):
            x = monoid.sample(rng)
            if not monoid.eq(monoid.diamond(x, one), x):
                note("diamond-unit", f"x={x}")
            if not monoid.eq(monoid.diamond(x, monoid.zero), monoid.zero):
                note("diamond-zero", f"x={x}")
            n = rng.randint(1, 4)
            times = tuple(monoid.sample_time(rng) for _ in range(n))
            unit_word = WeightPairWord(tuple(((one, one), t) for t in times))
            if not monoid.eq(monoid.val(unit_word), one):
                note("val-of-units", f"times={times}")
            word = monoid.sample_word(rng)
            k = rng.randrange(len(word))
            entries = list(word.entries)
            (m, _), t = entries[k]
            entries[k] = ((m, monoid.zero), t)
            if not monoid.eq(monoid.val(WeightPairWord(tuple(entries))), monoid.zero):
                note("val-zero-propagation", f"word={tuple(entries)}")

    return AxiomReport(monoid.id, samples, failures)
