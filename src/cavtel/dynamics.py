"""Hamiltonians, decay channels, and Monte Carlo wave-function evolution.

Two model tiers share one interface. The full tier keeps the excited atomic
level and the laser couplings to it. The effective tier works in the ground
manifold after adiabatic elimination, with second-order shifts and exchange
rates from :mod:`cavtel.params`.

Evolution between quantum jumps uses the non-Hermitian Hamiltonian whose
anti-Hermitian part matches the decay channels: the squared norm of the
unnormalized state is the no-jump probability. A jump fires when that norm
falls to a uniform random threshold. Under a diagonal H the survival is a
sum of exponentials, and ``survival_solve`` finds the jump time by Newton
steps on its logarithm. Otherwise ``_bisect_jump_time`` takes safeguarded
Newton steps inside a shrinking bracket, on probes of the state that start
from it in the eigenbasis and memoise nothing; the slope of the norm comes
from the decay rates on H's diagonal, and the probe at the jump time is the
state the jump acts on. The channel is drawn by Born weights, and the state
renormalized.

H is made dense once, and every propagator is an ``EigPropagator``: one
``evolve`` that memoises its operator per duration (at most
``STEP_MEMO_SIZE`` of them) and always applies it, so its result does not
depend on what the memo holds. A diagonal H gives the one-axis
``DiagonalPropagator``, which keeps closed-form survival times. Otherwise
each block of states that H never couples to another is eigendecomposed on
its own, into one dense V diag(exp(-i lam t)) W factor in basis order. Only
a defective block falls back, with a warning, to the ``ExpmPropagator`` of H.

Neither tier's no-jump Hamiltonian couples two cavity sites: only the
detector jump operators a0 +- a1 mix them. So every protocol propagator
(``PropagatorCache``) is built from each site's Hamiltonian on a one-site
register (40 and 20 states on the ``effective`` desk register, 108 and 36
on ``full``): diagonal sites sum into one diagonal over the register, and
otherwise ``EigPropagator`` applies one factor per site axis. With blocks
this small the results do not depend on the BLAS thread count. A site that
fails its eigendecomposition check is named in a warning, and only that
site falls back to a matrix exponential of its own Hamiltonian.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .params import PhysicalParams
from .spaces import Register, SparseOp, norm2

JUMP_TIME_RTOL = 1e-9
EIG_CHECK_RTOL = 1e-8
# Most durations a propagator's step memo holds; a full memo is cleared. A
# protocol laser configuration recurs through at most 4 durations (seen on
# the effective and full desk tiers), and a jump adds two once-only ones.
STEP_MEMO_SIZE = 16


def normalize_lasers(lasers) -> tuple:
    """Canonical laser configuration: sorted (site, atom, strong, weak) rows.

    At most one atom per site may be illuminated; rows with both flags off
    are dropped.
    """
    rows = []
    seen_sites = set()
    for row in lasers or ():
        site, atom, strong, weak = row
        if not (strong or weak):
            continue
        if site in seen_sites:
            raise ValueError("one illuminated atom per site")
        seen_sites.add(site)
        rows.append((int(site), int(atom), bool(strong), bool(weak)))
    return tuple(sorted(rows))


def _diag_op(space, values) -> SparseOp:
    idx = np.flatnonzero(values)
    return SparseOp(space.dim, idx, idx, values[idx])


def effective_hamiltonian(space: Register, params: PhysicalParams, lasers=()) -> SparseOp:
    """Ground-manifold Hamiltonian, non-Hermitian through cavity decay."""
    p = params
    diag = np.zeros(space.dim, dtype=np.complex128)
    for s in range(len(space.sites)):
        y = space.photon_numbers(s)
        zeros = space.zero_level_count(s)
        diag += -1j * p.cavity_decay * y
        diag += -(p.detuning_offset + p.shift_photon * y) * zeros
    h = _diag_op(space, diag)
    for site, atom, strong, weak in normalize_lasers(lasers):
        a = space.annihilate(site)
        raise_10 = space.transition(site, atom, 1, 0)
        if strong:
            proj1 = space.transition(site, atom, 1, 1)
            h = h + proj1.scaled(-p.shift_strong)
            exch = a @ raise_10
            h = h + exch.scaled(-p.rabi_exchange) + exch.dagger().scaled(-p.rabi_exchange)
        if weak:
            proj0 = space.transition(site, atom, 0, 0)
            h = h + proj0.scaled(-p.shift_weak)
            cross = a @ proj0
            h = h + cross.scaled(-p.cross_weak_cavity) + cross.dagger().scaled(-p.cross_weak_cavity)
        if strong and weak:
            h = h + raise_10.scaled(-p.rabi_raman) + raise_10.dagger().scaled(-p.rabi_raman)
    return h


def full_hamiltonian(space: Register, params: PhysicalParams, lasers=()) -> SparseOp:
    """Three-level Hamiltonian with the excited state kept explicitly."""
    for shape in space.sites:
        if shape.levels != 3:
            raise ValueError("full model needs three-level atoms")
    p = params
    diag = np.zeros(space.dim, dtype=np.complex128)
    for s in range(len(space.sites)):
        diag += -1j * p.cavity_decay * space.photon_numbers(s)
        diag += -p.detuning_offset * space.zero_level_count(s)
        for atom in range(space.sites[s].atoms):
            diag += (p.laser_detuning - 1j * p.atom_decay) * (space.atom_levels(s, atom) == 2)
    h = _diag_op(space, diag)
    for s in range(len(space.sites)):
        a = space.annihilate(s)
        for atom in range(space.sites[s].atoms):
            absorb = a @ space.transition(s, atom, 2, 0)
            h = h + absorb.scaled(p.cavity_coupling) + absorb.dagger().scaled(p.cavity_coupling)
    for site, atom, strong, weak in normalize_lasers(lasers):
        if strong:
            up = space.transition(site, atom, 2, 1)
            h = h + up.scaled(p.rabi_strong) + up.dagger().scaled(p.rabi_strong)
        if weak:
            up = space.transition(site, atom, 2, 0)
            h = h + up.scaled(p.rabi_weak) + up.dagger().scaled(p.rabi_weak)
    return h


@dataclass(frozen=True)
class Channel:
    """One decay channel: a collapse operator with bookkeeping labels."""

    name: str
    kind: str  # "detector" or "emission"
    sign: int  # +1/-1 for the two detector ports, 0 otherwise
    op: SparseOp


def detector_channels(space: Register, params: PhysicalParams) -> list[Channel]:
    """Beam-splitter mixed cavity outputs: sum and difference ports.

    With a single site both ports see the same field, which keeps the total
    decay rate per photon identical to the two-site case.
    """
    scale = math.sqrt(params.cavity_decay)
    a0 = space.annihilate(0)
    a1 = space.annihilate(1) if len(space.sites) > 1 else a0.scaled(0.0)
    return [
        Channel("detector_plus", "detector", +1, (a0 + a1).scaled(scale)),
        Channel("detector_minus", "detector", -1, (a0 + a1.scaled(-1.0)).scaled(scale)),
    ]


def emission_channels(space: Register, params: PhysicalParams) -> list[Channel]:
    """Spontaneous decay from the excited level into both ground levels."""
    scale = math.sqrt(params.atom_decay)
    out = []
    for s in range(len(space.sites)):
        for atom in range(space.sites[s].atoms):
            for ground in (0, 1):
                op = space.transition(s, atom, ground, 2).scaled(scale)
                out.append(Channel(f"emission_s{s}a{atom}_to{ground}", "emission", 0, op))
    return out


def decay_balance_defect(h: SparseOp, channels) -> float:
    """Max deviation of i(H - H^dag) from sum(C^dag C); zero for a valid pair."""
    anti = 1j * (h.to_dense() - h.to_dense().conj().T)
    total = np.zeros_like(anti)
    for ch in channels:
        dense = ch.op.to_dense()
        total += dense.conj().T @ dense
    return float(np.max(np.abs(anti - total)))


# -- propagators ------------------------------------------------------------------


def survival_solve(weights, rates, u, t_max):
    """First t in [0, t_max] where S(t) = sum_i weights[i]*exp(-rates[i]*t) falls to u.

    S is the squared norm of a state under diagonal decay, so log S is
    convex and nonincreasing: Newton steps on log S(t) - log u from t = 0
    rise to the root without passing it, and need no bracket. ``t_max`` may
    be ``math.inf``. Returns 0.0 when S(0) <= u, and -1.0 when u is at or
    below the weight at rate 0 (so also when u <= 0), when an iterate passes
    ``t_max``, or when the slope underflows to 0. Stops once a step is at
    most 1e-13 t, typically after 4 to 6 evaluations; raises
    ``RuntimeError`` after 100. Callers should pass the weights already
    summed per distinct rate: the sum runs over plain floats.
    """
    terms = [(w, r, r * w) for w, r in zip(np.asarray(weights, dtype=float).tolist(),
                                           np.asarray(rates, dtype=float).tolist()) if w != 0.0]
    if sum([w for w, _, _ in terms]) <= u:
        return 0.0
    # S(t) falls toward the weight at rate 0 but never reaches it.
    if u <= sum([w for w, r, _ in terms if r == 0.0]):
        return -1.0
    log_u = math.log(u)
    t_max = min(t_max, sys.float_info.max)  # an overflowing step must still exceed it
    t = 0.0
    for _ in range(100):
        s = slope = 0.0
        for w, r, rw in terms:
            e = math.exp(-r * t)
            s += w * e
            slope += rw * e
        if slope <= 0.0:
            return -1.0
        # A step below 0 means rounding alone put S(t) at or under u: t is the root.
        step = max((math.log(s) - log_u) * s / slope, 0.0)
        t += step
        if t > t_max:
            return -1.0
        if step <= 1e-13 * t:
            return t
    raise RuntimeError(f"survival search for u={u!r} did not converge in 100 Newton steps")


def _memo(steps, t, build):
    """``build(float(t))``, kept in ``steps`` per duration; a full memo is cleared first."""
    key = float(t)
    step = steps.get(key)
    if step is None:
        if len(steps) >= STEP_MEMO_SIZE:
            steps.clear()
        step = steps[key] = build(key)
    return step


def _on_axis(op, x, pre, size, post):
    """``op`` on the middle axis of x viewed as (pre, size, post): a vector elementwise, a matrix by product."""
    if pre == post == 1:  # a single axis: the plain product is the fastest form
        x = x.reshape(size)
        return x * op if op.ndim == 1 else op @ x
    if op.ndim == 1:
        return x.reshape(pre, size, post) * op[:, None]
    if post > 1:
        return op @ x.reshape(pre, size, post)
    return x.reshape(pre, size) @ op.T


class EigPropagator:
    """exp(-iHt) for H = sum over tensor axes of H_k, one axis at a time.

    The state is viewed as a tensor over the axis dimensions ``dims``. Each
    factor is ``(lam, vmat, wmat)`` in its axis's basis order, with
    exp(-iH_k t) = V diag(exp(-i lam t)) W as dense matrices; a diagonal
    axis has no V or W, and an ``ExpmPropagator`` may stand in for a factor.
    ``make_propagator`` gives one axis (its one-axis subclasses hold a
    diagonal or a matrix exponential), ``PropagatorCache`` one per site.

    The protocol reruns a fixed pulse schedule, so a few durations recur
    all the time. ``evolve`` memoises one operator per axis and duration,
    and every call applies them: (V * exp(-i lam t)) @ W, the fallback's
    matrix exponential, or a diagonal axis's phases. Those come from its
    distinct exponents only (163 of 800 on the ``effective`` lasers-off
    register, where most durations come once), spread by index: byte-equal
    to the direct ``np.exp``. ``state_curve`` probes the no-jump state for
    the jump search: it moves the state into each axis's eigenbasis once,
    then each probe applies only the phases and V, and memoises nothing.
    ``decay`` is -Im diag(H) over the register, each axis's diagonal of
    V diag(lam) W summed over the axes; the search takes its slope from it.
    """

    def __init__(self, dims, factors):
        self.factors = list(factors)
        self.shapes = [(math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:]))
                       for axis in range(len(dims))]
        self.decay = functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), [
            factor.decay if isinstance(factor, ExpmPropagator)
            else -np.imag(factor[0]) if factor[1] is None
            else -np.imag(np.einsum("ij,j,ji->i", factor[1], factor[0], factor[2]))
            for factor in self.factors])
        self._operators = [self._operator(factor) for factor in self.factors]
        self._steps = {}

    @staticmethod
    def _operator(factor):
        """t -> exp(-iH_k t) for one axis's factor."""
        if isinstance(factor, ExpmPropagator):
            return factor.matrix
        lam, vmat, wmat = factor
        if vmat is None:
            exponents, index = np.unique(-1j * lam, return_inverse=True)
            return lambda t: np.exp(exponents * t).take(index)
        return lambda t: (vmat * np.exp(-1j * lam * t)) @ wmat

    def _fold(self, t):
        return [operator(t) for operator in self._operators]

    def evolve(self, psi, t):
        x = psi
        for shape, op in zip(self.shapes, _memo(self._steps, t, self._fold)):
            x = _on_axis(op, x, *shape)
        return x.reshape(-1)

    def state_curve(self, psi):
        """t -> ``evolve(psi, t)``, from psi in the eigenbases; memoises nothing."""
        y = psi
        for shape, factor in zip(self.shapes, self.factors):
            if not isinstance(factor, ExpmPropagator) and factor[2] is not None:
                y = _on_axis(factor[2], y, *shape)

        def state_at(t):
            x = y
            for shape, factor in zip(self.shapes, self.factors):
                if isinstance(factor, ExpmPropagator):
                    x = _on_axis(factor.matrix(t), x, *shape)
                    continue
                lam, vmat, _ = factor
                x = _on_axis(np.exp(-1j * lam * t), x, *shape)
                if vmat is not None:
                    x = _on_axis(vmat, x, *shape)
            return x.reshape(-1)

        return state_at


class DiagonalPropagator(EigPropagator):
    """exp(-iHt) for diagonal H, one axis, with closed-form no-jump survival times
    (``survival_time`` sums the squared amplitudes per distinct decay rate)."""

    # Its own attribute, not inherited: perfbench/tracing.py wraps each
    # class's ``evolve`` by name, EigPropagator's first, and an inherited one
    # would run inside both wrappers and count as a dense evolve too.
    evolve = EigPropagator.evolve

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.complex128)
        super().__init__([self.diag.size], [(self.diag, None, None)])
        if np.any(self.decay < -1e-12):
            raise ValueError("diagonal growth would break norm monotonicity")
        self._rates, self._rate_group = np.unique(2.0 * self.decay, return_inverse=True)

    def survival_time(self, psi, threshold, t_max):
        """First time the squared norm reaches threshold, or -1 if it never does."""
        weights = np.bincount(self._rate_group, weights=np.abs(psi) ** 2, minlength=len(self._rates))
        return survival_solve(weights, self._rates, threshold, t_max)


class ExpmPropagator(EigPropagator):
    """Fallback exp(-iHt) by direct matrix exponential: one axis whose factor is itself.

    An ``EigPropagator`` also takes it as the factor of a site whose
    eigendecomposition failed its check; that axis's matrices then live in
    that propagator's step memo. ``decay`` is -Im diag(H).
    """

    evolve = EigPropagator.evolve  # its own attribute, as DiagonalPropagator's

    def __init__(self, h_dense):
        self.h = h_dense
        self.decay = -np.imag(np.diag(h_dense))  # this factor's decay, read by the base class
        super().__init__([len(h_dense)], [self])

    def matrix(self, t):
        """exp(-iHt), computed afresh."""
        return scipy.linalg.expm(-1j * self.h * t)


def make_propagator(h: SparseOp):
    """Propagator for H, eigendecomposed one connected block at a time.

    H is made dense once; with no off-diagonal entry it gives a
    ``DiagonalPropagator``. Otherwise each block of states that H links
    either way is eigendecomposed on its own into one dense ``(lam, V, W)``
    factor in basis order, returned as a one-axis ``EigPropagator``. A
    defective block, whose eigenvectors do not reproduce it to
    ``EIG_CHECK_RTOL``, warns and H falls back to an ``ExpmPropagator``.
    """
    n = h.dim
    dense = h.to_dense()
    links = dense != 0  # csgraph's float cast would drop purely imaginary links
    np.fill_diagonal(links, False)
    if not links.any():
        return DiagonalPropagator(dense.diagonal().copy())
    _, labels = scipy.sparse.csgraph.connected_components(links, directed=False)
    scale = float(np.max(np.abs(dense)))
    lam = np.empty(n, dtype=np.complex128)
    vmat, wmat = np.zeros((2, n, n), dtype=np.complex128)
    for states in np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]):
        block = np.ix_(states, states)
        sub = dense[block]
        if states.size == 1:
            lam[states], vmat[block], wmat[block] = sub[0], 1.0, 1.0
            continue
        values, vectors = np.linalg.eig(sub)
        try:
            inverse = np.linalg.inv(vectors)
            residual = float(np.max(np.abs((vectors * values) @ inverse - sub)))
        except np.linalg.LinAlgError:
            residual = math.inf
        if not residual <= EIG_CHECK_RTOL * max(scale, 1e-300):
            warnings.warn(
                f"eigendecomposition of {states.size}-state blocks failed its check "
                f"(residual {residual:.3g}); falling back to expm of the {n}-state matrix",
                RuntimeWarning,
                stacklevel=2,
            )
            return ExpmPropagator(dense)
        lam[states], vmat[block], wmat[block] = values, vectors, inverse
    return EigPropagator([n], [(lam, vmat, wmat)])


class PropagatorCache:
    """Propagators per laser configuration for one space and model tier.

    Neither tier's Hamiltonian couples two sites (the cavities meet only at
    the detectors, through the jump operators), so ``make_propagator``
    builds each site from its own Hamiltonian on a one-site register. If
    every site is diagonal, their diagonals summed over the register grid
    make one ``DiagonalPropagator`` with closed-form survival times; else an
    ``EigPropagator`` takes each site's one factor: dense, diagonal, or the
    ``ExpmPropagator`` of a site that fails its eigendecomposition check,
    whose ``make_propagator`` ``RuntimeWarning`` is re-emitted prefixed
    with the site's number.
    """

    def __init__(self, space: Register, params: PhysicalParams, tier="effective"):
        if tier not in ("effective", "full"):
            raise ValueError("tier must be 'effective' or 'full'")
        self.space = space
        self.params = params
        self.tier = tier
        self._build = effective_hamiltonian if tier == "effective" else full_hamiltonian
        self._site_spaces = [Register([shape]) for shape in space.sites]
        self._cache = {}

    def site_hamiltonians(self, lasers=()) -> list[SparseOp]:
        """Each site's H on its own one-site register, its laser rows moved to site 0.

        A row naming a site or atom outside the register raises ``ValueError``.
        """
        rows = normalize_lasers(lasers)
        sites = self.space.sites
        for row in rows:
            site, atom = row[:2]
            if not (0 <= site < len(sites) and 0 <= atom < sites[site].atoms):
                raise ValueError(f"laser row {row} is outside the register")
        return [
            self._build(sub, self.params, [(0, *row[1:]) for row in rows if row[0] == site])
            for site, sub in enumerate(self._site_spaces)
        ]

    def get(self, lasers=()):
        key = normalize_lasers(lasers)
        if key not in self._cache:
            self._cache[key] = self._propagator(key)
        return self._cache[key]

    def _propagator(self, key):
        site_hs = self.site_hamiltonians(key)
        props = []
        for site, h in enumerate(site_hs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                props.append(make_propagator(h))
            for w in caught:
                warnings.warn(f"site {site}: {w.message}", w.category, stacklevel=3)
        diags = [prop.diag for prop in props if isinstance(prop, DiagonalPropagator)]
        if len(diags) == len(props):  # site 0's digits are the most significant: outermost
            return DiagonalPropagator(functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), diags))
        return EigPropagator([h.dim for h in site_hs], [prop.factors[0] for prop in props])


# -- trajectory stepping ----------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One interval of constant Hamiltonian."""

    duration: float
    propagator: object


@dataclass
class Click:
    """One jump, ``time`` counted from its walk's start; the protocol driver records a copy on the run clock."""

    time: float
    channel: str
    kind: str
    sign: int


@dataclass
class JumpRun:
    """Outcome of one no-jump/jump walk: state is left unnormalized.

    ``norm2`` is the squared norm of ``psi``. The walk has it already (from
    the step that made ``psi``), so ``normalized_state`` reuses it.
    """

    psi: np.ndarray
    norm2: float
    clicks: list[Click] = field(default_factory=list)
    elapsed: float = 0.0

    def normalized_state(self) -> np.ndarray:
        """``psi`` scaled to unit norm: ``spaces.normalized(psi)``, bit for bit."""
        n = np.sqrt(self.norm2)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return self.psi / n


def _bisect_jump_time(propagator, psi, threshold, t_hi):
    """(t, state at t) where the no-jump squared norm N falls to ``threshold``.

    N must exceed ``threshold`` at 0 and not at ``t_hi``. The search keeps a
    bracket [lo, hi] around the root, from [0, t_hi], and takes Newton steps
    on log N - log threshold. Each probe gives the state x = ``evolve(psi,
    t)`` and so N and N' = -2 sum_i decay_i |x_i|^2: the exact slope when
    H's anti-Hermitian part is diagonal, only a guide otherwise. A step
    shorter than the tolerance is lengthened by half of it, so the next
    probe lands past the root and closes the bracket. A step that leaves
    the bracket, or is longer than half the step before it (Newton on a
    poor slope creeps), probes the bracket's midpoint instead. Returns the
    last probe once hi - lo is at most ``JUMP_TIME_RTOL * t_hi``; the name
    is kept from the bisection this search replaced.
    """
    state_at = propagator.state_curve(psi)
    decay = propagator.decay
    tol = JUMP_TIME_RTOL * t_hi
    log_u = math.log(threshold)
    lo, hi = 0.0, t_hi
    t, x, last = 0.0, psi, math.inf  # last: the length of the step before
    for _ in range(200):
        n = norm2(x)
        if n > threshold:
            lo = t
        else:
            hi = t
        if hi - lo <= tol:
            break
        rate = float(decay @ (x.real ** 2 + x.imag ** 2))  # -N'/2
        step = (math.log(n) - log_u) * n / (2.0 * rate) if rate > 0.0 and n > 0.0 else math.inf
        if abs(step) < tol:
            step += math.copysign(0.5 * tol, step)
        new = t + step
        if not (lo < new < hi and abs(step) <= 0.5 * last):
            new = 0.5 * (lo + hi)
        last = abs(new - t)
        t = new
        x = state_at(t)
    return t, x


def evolve_with_jumps(
    psi,
    segments,
    channels,
    rng,
    stop_after_first_detector=False,
    stop_on_emission=True,
) -> JumpRun:
    """Walk constant-Hamiltonian segments, sampling quantum jumps.

    ``psi`` must enter normalized. The returned state is unnormalized; its
    squared norm is the no-jump probability since the last jump. Click times
    count from the walk's start. With ``stop_after_first_detector`` the
    walk returns right after the first detector click; emission clicks stop
    the walk by default so callers can abort. The walk never writes into
    ``psi``, and one that advances no time returns it as is, so a caller
    must not write into the returned state either.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    n2 = None  # psi's squared norm, once a step has computed it
    clicks = []
    elapsed = 0.0
    threshold = rng.random()
    for seg in segments:
        remaining = seg.duration
        while remaining > 0.0:
            evolved = seg.propagator.evolve(psi, remaining)
            n_evolved = norm2(evolved)
            if n_evolved > threshold:
                psi, n2 = evolved, n_evolved
                elapsed += remaining
                break
            if isinstance(seg.propagator, DiagonalPropagator):
                t_jump = seg.propagator.survival_time(psi, threshold, remaining)
                if t_jump < 0.0:
                    t_jump = remaining
                at_jump = seg.propagator.evolve(psi, t_jump)
            else:
                t_jump, at_jump = _bisect_jump_time(seg.propagator, psi, threshold, remaining)
            branches = [ch.op.apply(at_jump) for ch in channels]
            weights = np.array([norm2(b) for b in branches])
            total = float(weights.sum())
            elapsed += t_jump
            remaining -= t_jump
            if total <= 0.0:
                # Numerically normless corner: no channel carries amplitude.
                psi, n2 = at_jump, norm2(at_jump)
                threshold = rng.random() * n2
                continue
            edges = np.cumsum(weights)
            pick = min(int(np.searchsorted(edges, rng.random() * total, side="right")), len(channels) - 1)
            chan = channels[pick]
            psi = branches[pick] / math.sqrt(weights[pick])
            n2 = norm2(psi)
            clicks.append(Click(elapsed, chan.name, chan.kind, chan.sign))
            threshold = rng.random()
            if (stop_after_first_detector and chan.kind == "detector") or (
                stop_on_emission and chan.kind == "emission"
            ):
                return JumpRun(psi, n2, clicks, elapsed)
    return JumpRun(psi, norm2(psi) if n2 is None else n2, clicks, elapsed)
