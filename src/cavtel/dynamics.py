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

Propagators are built from the sparse Hamiltonian without a dense copy of
it. The states split into connected blocks that H never couples to each
other; each block is exponentiated on its own through an eigendecomposition,
batched over blocks of equal size, and a diagonal H keeps closed-form
survival times. Only a defective block falls back, with a warning, to a
matrix exponential of the whole H.

Neither tier's no-jump Hamiltonian couples two cavity sites: only the
detector jump operators a0 +- a1 mix them. So the protocol's propagators
(``PropagatorCache``) are built per site, from each site's Hamiltonian on a
one-site register (40 and 20 states on the ``effective`` desk register, 108
and 36 on ``full``), and applied to the state one site axis at a time as
dense V diag(exp(-i lam t)) W products. With blocks this small the results
do not depend on the BLAS thread count. A site that fails its
eigendecomposition check is named in a warning, and that configuration is
built whole-register instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
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


class EigPropagator:
    """exp(-iHt) for block-diagonal H through cached per-block eigendecompositions.

    ``perm`` gathers the basis into block order (None when it already is);
    each group is ``(start, stop, lam, vmat, wmat)`` over a contiguous range
    of that order, with H_block = V diag(lam) W. A group of 1x1 blocks has
    no V or W, and equal-size blocks are stacked as (n_blocks, s, s). A lone
    block keeps 2-D matrices: a batched matmul over one block costs about
    twice a plain matvec.
    """

    def __init__(self, perm, groups):
        self.perm = perm
        self.inverse = None if perm is None else np.argsort(perm)
        self.groups = groups

    def evolve(self, psi, t):
        x = psi if self.perm is None else psi[self.perm]
        parts = []
        for start, stop, lam, vmat, wmat in self.groups:
            phase = np.exp(-1j * lam * t)
            seg = x[start:stop]
            if vmat is None:
                parts.append(phase * seg)
            elif vmat.ndim == 2:
                parts.append(vmat @ (phase * (wmat @ seg)))
            else:
                seg = seg.reshape(len(lam), -1, 1)
                parts.append((vmat @ (phase[:, :, None] * (wmat @ seg))).ravel())
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out if self.inverse is None else out[self.inverse]


class ExpmPropagator:
    """Fallback exp(-iHt) by direct matrix exponential, memoized per duration."""

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


def make_propagator(h: SparseOp):
    """Propagator for H, exponentiated one connected block at a time.

    A diagonal H gives a ``DiagonalPropagator``. Otherwise the states are
    split into blocks that H links in either direction, ordered by block
    size, and each size group is eigendecomposed in one batched call. If a
    group's eigenvectors do not reproduce it to ``EIG_CHECK_RTOL`` (a
    defective block), a ``RuntimeWarning`` says so and the whole matrix
    falls back to an ``ExpmPropagator``.
    """
    n = h.dim
    m = scipy.sparse.csr_array((h.vals, (h.rows, h.cols)), shape=(n, n))  # sums duplicates
    m.eliminate_zeros()
    m = m.tocoo()
    rows, cols, vals = m.row, m.col, m.data
    off = rows != cols
    if not np.any(off):
        diag = np.zeros(n, dtype=np.complex128)
        diag[rows] = vals
        return DiagonalPropagator(diag)
    # A real 0/1 pattern: csgraph casts to float, which would warn on complex
    # values and drop links that are purely imaginary.
    links = scipy.sparse.csr_array((np.ones(int(off.sum())), (rows[off], cols[off])), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(links, directed=False)
    state_size = np.bincount(labels)[labels]
    perm = np.lexsort((labels, state_size))  # stable: basis order inside each block
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    prow, pcol = pos[rows], pos[cols]
    sizes, counts = np.unique(state_size[perm], return_counts=True)
    scale = float(np.max(np.abs(vals)))
    groups = []
    start = 0
    for size, count in zip(sizes.tolist(), counts.tolist()):
        stop = start + count
        n_blocks = count // size
        entry = (prow >= start) & (prow < stop)
        local_row, local_col = prow[entry] - start, pcol[entry] - start
        stack = np.zeros((n_blocks, size, size), dtype=np.complex128)
        stack[local_row // size, local_row % size, local_col % size] = vals[entry]
        if size == 1:
            groups.append((start, stop, stack.reshape(n_blocks), None, None))
        else:
            lam, vmat = np.linalg.eig(stack)
            try:
                wmat = np.linalg.inv(vmat)
                residual = float(np.max(np.abs((vmat * lam[:, None, :]) @ wmat - stack)))
            except np.linalg.LinAlgError:
                residual = math.inf
            if not residual <= EIG_CHECK_RTOL * max(scale, 1e-300):
                warnings.warn(
                    f"eigendecomposition of {size}-state blocks failed its check "
                    f"(residual {residual:.3g}); falling back to whole-matrix expm",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return ExpmPropagator(h.to_dense())
            if n_blocks == 1:
                lam, vmat, wmat = lam[0], vmat[0], wmat[0]
            groups.append((start, stop, lam, np.ascontiguousarray(vmat), np.ascontiguousarray(wmat)))
        start = stop
    return EigPropagator(None if np.array_equal(perm, np.arange(n)) else perm, groups)


class SiteFactorPropagator:
    """exp(-iHt) for H = sum over sites of H_s, one site axis at a time.

    The state is viewed as a tensor over the site dimensions ``dims``. Each
    factor is ``(lam, vmat, wmat)`` in its site's basis order, with
    exp(-iH_s t) = V diag(exp(-i lam t)) W as dense matrices; a diagonal
    site has no V or W and is applied elementwise.
    """

    def __init__(self, dims, factors):
        self.steps = []
        for axis, (lam, vmat, wmat) in enumerate(factors):
            shape = (math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:]))
            self.steps.append((shape, lam, vmat, wmat))

    def evolve(self, psi, t):
        x = psi
        for (pre, size, post), lam, vmat, wmat in self.steps:
            phase = np.exp(-1j * lam * t)
            if vmat is None:
                x = x.reshape(pre, size, post) * phase[:, None]
            elif post == 1:
                x = ((x.reshape(pre, size) @ wmat.T) * phase) @ vmat.T
            else:
                x = vmat @ (phase[:, None] * (wmat @ x.reshape(pre, size, post)))
        return x.reshape(-1)


def _dense_factor(prop):
    """(lam, V, W) of a one-site propagator in the site's basis order; no V, W if diagonal."""
    if isinstance(prop, DiagonalPropagator):
        return prop.diag, None, None
    lams, vs, ws = [], [], []
    for _, _, lam, vmat, wmat in prop.groups:
        if vmat is None:  # 1x1 blocks
            vmat = wmat = np.ones((lam.size, 1, 1))
        size = vmat.shape[-1]
        lams.append(lam.ravel())
        vs.extend(vmat.reshape(-1, size, size))
        ws.extend(wmat.reshape(-1, size, size))
    lam = np.concatenate(lams)
    vmat, wmat = scipy.linalg.block_diag(*vs), scipy.linalg.block_diag(*ws)
    if prop.inverse is None:
        return lam, vmat, wmat
    back = np.ix_(prop.inverse, prop.inverse)
    return lam[prop.inverse], vmat[back], wmat[back]


class PropagatorCache:
    """Propagators per laser configuration for one space and model tier.

    Neither tier's Hamiltonian couples two sites (the cavities meet only at
    the detectors, through the jump operators), so each configuration is
    built as one factor per site from that site's Hamiltonian alone, on a
    one-site register. When every site is diagonal the whole-space
    ``DiagonalPropagator`` is returned, which keeps closed-form survival
    times. A site whose eigendecomposition fails its check is reported
    with a ``RuntimeWarning`` and the configuration falls back to the
    whole-register ``make_propagator``.
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

    def hamiltonian(self, lasers=()) -> SparseOp:
        return self._build(self.space, self.params, lasers)

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
        if all(np.array_equal(h.rows, h.cols) for h in site_hs):
            return make_propagator(self.hamiltonian(key))
        factors = []
        for site, h in enumerate(site_hs):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    factors.append(_dense_factor(make_propagator(h)))
            except RuntimeWarning as exc:
                warnings.warn(
                    f"site {site}: {str(exc).partition(';')[0]}; building the whole-register propagator instead",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return make_propagator(self.hamiltonian(key))
        return SiteFactorPropagator([sub.dim for sub in self._site_spaces], factors)


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
    stopped_early: bool = False


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
                run.stopped_early = True
                return run
    return run
