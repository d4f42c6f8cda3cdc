"""Hamiltonians, decay channels, and Monte Carlo wave-function evolution.

Two model tiers share one interface. The full tier keeps the excited atomic
level and the laser couplings to it. The effective tier works in the ground
manifold after adiabatic elimination, with second-order shifts and exchange
rates from :mod:`cavtel.params`.

Evolution between quantum jumps uses the non-Hermitian Hamiltonian whose
anti-Hermitian part matches the decay channels: the squared norm of the
unnormalized state is the no-jump probability. A jump fires when that norm
falls to a uniform random threshold; the jump time is located by bisection,
the channel drawn by Born weights, and the state renormalized.

H is made dense once. A diagonal H keeps closed-form survival times.
Otherwise the states split into connected blocks that H never couples to
each other; each block is eigendecomposed on its own, and the blocks are
laid out as one dense V diag(exp(-i lam t)) W factor in basis order. Only a
defective block falls back, with a warning, to a matrix exponential of H.

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
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .params import PhysicalParams
from .spaces import Register, SparseOp, norm2

JUMP_TIME_RTOL = 1e-9
EIG_CHECK_RTOL = 1e-8


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
    """First t in (0, t_max] where sum_i weights[i]*exp(-rates[i]*t) == u.

    The sum is the squared norm of a state under diagonal decay; it is
    monotone nonincreasing. Returns -1.0 when the survival at t_max still
    exceeds u (no jump inside the window). Bisection to 1e-12 relative.
    The sum runs over plain floats, so callers should pass the weights
    already summed per distinct rate: a handful of terms, not one per
    basis state.
    """
    terms = [(w, r) for w, r in zip(np.asarray(weights, dtype=float).tolist(),
                                    np.asarray(rates, dtype=float).tolist()) if w != 0.0]

    def survival(t):
        return sum([w * math.exp(-r * t) for w, r in terms])

    if survival(t_max) > u:
        return -1.0
    return _bisect(survival, u, t_max, 1e-12 * t_max)


def _bisect(survival, u, t_hi, tol):
    """Midpoint of the bracket around survival(t) == u on (0, t_hi], once it is within tol."""
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if survival(mid) > u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


class DiagonalPropagator:
    """exp(-iHt) for diagonal H, with analytic no-jump survival times."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.complex128)
        self.phase_rate = -np.real(self.diag)
        self.decay_rate = -np.imag(self.diag)
        if np.any(self.decay_rate < -1e-12):
            raise ValueError("diagonal growth would break norm monotonicity")
        # Survival searches sum the squared amplitudes per distinct decay rate.
        self._rates, self._rate_group = np.unique(2.0 * self.decay_rate, return_inverse=True)

    def evolve(self, psi, t):
        return psi * np.exp((1j * self.phase_rate - self.decay_rate) * t)

    def survival_time(self, psi, threshold, t_max):
        """First time the squared norm reaches threshold, or -1 if it never does."""
        weights = np.bincount(self._rate_group, weights=np.abs(psi) ** 2, minlength=len(self._rates))
        return survival_solve(weights, self._rates, threshold, t_max)


class ExpmPropagator:
    """Fallback exp(-iHt) by direct matrix exponential, memoized per duration.

    The matrix is applied with ``@``, so it also evolves the middle axis of
    a (pre, size, post) array: an ``EigPropagator`` uses it as the factor of
    a site whose eigendecomposition failed its check.
    """

    def __init__(self, h_dense):
        self.h = h_dense
        self._cache = {}

    def evolve(self, psi, t):
        key = float(t)
        if key not in self._cache:
            if len(self._cache) > 64:
                self._cache.clear()
            self._cache[key] = scipy.linalg.expm(-1j * self.h * key)
        return self._cache[key] @ psi


class EigPropagator:
    """exp(-iHt) for H = sum over tensor axes of H_k, one axis at a time.

    The state is viewed as a tensor over the axis dimensions ``dims``. Each
    factor is ``(lam, vmat, wmat)`` in its axis's basis order, with
    exp(-iH_k t) = V diag(exp(-i lam t)) W as dense matrices; a diagonal
    axis has no V or W and is applied elementwise. An ``ExpmPropagator``
    may stand in for an axis's factor. ``make_propagator`` gives one axis,
    ``PropagatorCache`` one per site.
    """

    def __init__(self, dims, factors):
        self.factors = list(factors)
        self.shapes = [(math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:]))
                       for axis in range(len(dims))]

    def evolve(self, psi, t):
        x = psi
        for (pre, size, post), factor in zip(self.shapes, self.factors):
            if isinstance(factor, ExpmPropagator):
                x = factor.evolve(x.reshape(pre, size, post), t)
                continue
            lam, vmat, wmat = factor
            phase = np.exp(-1j * lam * t)
            if vmat is None:
                x = x.reshape(pre, size, post) * phase[:, None]
            elif post > 1:
                x = vmat @ (phase[:, None] * (wmat @ x.reshape(pre, size, post)))
            elif pre > 1:
                x = ((x.reshape(pre, size) @ wmat.T) * phase) @ vmat.T
            else:  # a single axis: a plain matvec is the fastest form
                x = vmat @ (phase * (wmat @ x))
        return x.reshape(-1)


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
    ``EigPropagator`` takes one factor per site. A site that fails its
    eigendecomposition check has ``make_propagator``'s ``RuntimeWarning``
    re-emitted prefixed with its number, and the ``ExpmPropagator`` of its
    own Hamiltonian that comes back becomes its factor.
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
        return EigPropagator([h.dim for h in site_hs], [
            prop.factors[0] if isinstance(prop, EigPropagator)
            else (prop.diag, None, None) if isinstance(prop, DiagonalPropagator)
            else prop  # an ExpmPropagator fallback is a factor as it is
            for prop in props])


# -- trajectory stepping ----------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One interval of constant Hamiltonian."""

    duration: float
    propagator: object
    label: str = ""


@dataclass
class Click:
    time: float
    channel: str
    kind: str
    sign: int
    label: str = ""


@dataclass
class JumpRun:
    """Outcome of one no-jump/jump walk: state is left unnormalized."""

    psi: np.ndarray
    clicks: list[Click] = field(default_factory=list)
    elapsed: float = 0.0


def _bisect_jump_time(propagator, psi, threshold, t_hi):
    return _bisect(lambda t: norm2(propagator.evolve(psi, t)), threshold, t_hi, JUMP_TIME_RTOL * t_hi)


def evolve_with_jumps(
    psi,
    segments,
    channels,
    rng,
    t0=0.0,
    stop_after_first_detector=False,
    stop_on_emission=True,
) -> JumpRun:
    """Walk constant-Hamiltonian segments, sampling quantum jumps.

    ``psi`` must enter normalized. The returned state is unnormalized; its
    squared norm is the no-jump probability since the last jump. Click times
    are absolute (offset by ``t0``). With ``stop_after_first_detector`` the
    walk returns right after the first detector click; emission clicks stop
    the walk by default so callers can abort.
    """
    run = JumpRun(psi=np.array(psi, dtype=np.complex128))
    threshold = rng.random()
    for seg in segments:
        remaining = seg.duration
        while remaining > 0.0:
            evolved = seg.propagator.evolve(run.psi, remaining)
            if norm2(evolved) > threshold:
                run.psi = evolved
                run.elapsed += remaining
                break
            if isinstance(seg.propagator, DiagonalPropagator):
                t_jump = seg.propagator.survival_time(run.psi, threshold, remaining)
                if t_jump < 0.0:
                    t_jump = remaining
            else:
                t_jump = _bisect_jump_time(seg.propagator, run.psi, threshold, remaining)
            at_jump = seg.propagator.evolve(run.psi, t_jump)
            branches = [ch.op.apply(at_jump) for ch in channels]
            weights = np.array([norm2(b) for b in branches])
            total = float(weights.sum())
            if total <= 0.0:
                # Numerically normless corner: no channel carries amplitude.
                run.psi = at_jump
                run.elapsed += t_jump
                remaining -= t_jump
                threshold = rng.random() * norm2(at_jump)
                continue
            edges = np.cumsum(weights)
            pick = min(int(np.searchsorted(edges, rng.random() * total, side="right")), len(channels) - 1)
            chan = channels[pick]
            run.psi = branches[pick] / math.sqrt(weights[pick])
            run.elapsed += t_jump
            remaining -= t_jump
            run.clicks.append(
                Click(t0 + run.elapsed, chan.name, chan.kind, chan.sign, seg.label)
            )
            threshold = rng.random()
            if (stop_after_first_detector and chan.kind == "detector") or (
                stop_on_emission and chan.kind == "emission"
            ):
                return run
    return run
