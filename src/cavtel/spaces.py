"""Labeled tensor-product state space for atoms coupled to cavity modes.

A register holds one or more sites; each site has a fixed number of atoms
(two or three internal levels each) and one bosonic mode truncated at a
photon cutoff. Basis labels read left to right: the atoms of site 0 in
order, then site 0's photon count, then the next site. The flat index uses
the same ordering with the leftmost digit most significant.

String labels mirror that layout with a ``;`` between sites, for example
``"1010;110"`` for two sites with atom digits ``101``/``11`` and photon
counts ``0``/``0``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SiteShape:
    """Layout of one cavity site: atom count, levels per atom, photon cutoff."""

    atoms: int
    levels: int = 2
    cutoff: int = 3

    def __post_init__(self):
        if self.atoms < 1:
            raise ValueError("site needs at least one atom")
        if self.levels not in (2, 3):
            raise ValueError("atoms carry two or three levels")
        if not 0 <= self.cutoff <= 9:
            raise ValueError("photon cutoff must be in 0..9")

    @property
    def dim(self) -> int:
        return self.levels**self.atoms * (self.cutoff + 1)


class SparseOp:
    """Operator in coordinate form on a fixed-dimension space."""

    __slots__ = ("dim", "rows", "cols", "vals")

    def __init__(self, dim, rows, cols, vals):
        self.dim = int(dim)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.complex128)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """A @ psi; duplicate entries accumulate."""
        out = np.zeros(self.dim, dtype=np.complex128)
        if self.rows.size:
            np.add.at(out, self.rows, self.vals * psi[self.cols])
        return out

    def dagger(self) -> "SparseOp":
        return SparseOp(self.dim, self.cols.copy(), self.rows.copy(), np.conj(self.vals))

    def scaled(self, factor) -> "SparseOp":
        return SparseOp(self.dim, self.rows, self.cols, self.vals * factor)

    def __add__(self, other: "SparseOp") -> "SparseOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SparseOp(
            self.dim,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals, other.vals]),
        )

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        """Sparse product: one term per (left entry, right entry) pair sharing
        the inner index. Duplicate terms are kept; ``apply`` and ``to_dense``
        sum them."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        order = np.argsort(other.rows, kind="stable")
        inner = other.rows[order]
        first = np.searchsorted(inner, self.cols, side="left")
        counts = np.searchsorted(inner, self.cols, side="right") - first
        left = np.repeat(np.arange(self.cols.size), counts)
        # Position of each term inside its left entry's run of matching right rows.
        within = np.arange(left.size) - np.repeat(np.cumsum(counts) - counts, counts)
        right = order[first[left] + within]
        return SparseOp(self.dim, self.rows[left], other.cols[right], self.vals[left] * other.vals[right])

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        np.add.at(mat, (self.rows, self.cols), self.vals)
        return mat


class Register:
    """Joint space of several cavity sites with precomputed label tables."""

    def __init__(self, sites):
        self.sites = tuple(sites)
        if not self.sites:
            raise ValueError("register needs at least one site")
        # Digit layout: per site, atom digits most significant, photon last.
        radices = [r for shape in self.sites for r in [shape.levels] * shape.atoms + [shape.cutoff + 1]]
        self._radices = tuple(radices)
        self.dim = math.prod(radices)
        self._site_digit_offset = list(itertools.accumulate([s.atoms + 1 for s in self.sites[:-1]], initial=0))
        self._digits = np.array(np.unravel_index(np.arange(self.dim), radices))

    # -- label <-> index ---------------------------------------------------

    def _digit_slot(self, site, atom=None):
        if not 0 <= site < len(self.sites):
            raise IndexError("site out of range")
        off = self._site_digit_offset[site]
        if atom is None:
            return off + self.sites[site].atoms
        if not 0 <= atom < self.sites[site].atoms:
            raise IndexError("atom out of range")
        return off + atom

    def index(self, label) -> int:
        """Flat index of a label given as one (digits..., photon) tuple per site."""
        label = tuple(label)
        if len(label) != len(self.sites):
            raise ValueError("label has wrong number of sites")
        flat = []
        for site, part in enumerate(label):
            part = tuple(part)
            shape = self.sites[site]
            if len(part) != shape.atoms + 1:
                raise ValueError("label arity mismatch")
            for d in part[:-1]:
                if not 0 <= d < shape.levels:
                    raise ValueError("atom level out of range")
            if not 0 <= part[-1] <= shape.cutoff:
                raise ValueError("photon count above cutoff")
            flat.extend(part)
        return int(np.ravel_multi_index(flat, self._radices))

    def label(self, index) -> tuple:
        if not 0 <= index < self.dim:
            raise IndexError("index out of range")
        digits = self._digits[:, index].tolist()
        return tuple(tuple(digits[off:off + shape.atoms + 1])
                     for off, shape in zip(self._site_digit_offset, self.sites))

    def parse(self, text: str) -> tuple:
        parts = text.split(";")
        if len(parts) != len(self.sites):
            raise ValueError("label has wrong number of sites")
        return tuple(tuple(int(c) for c in p) for p in parts)

    def ket(self, label) -> np.ndarray:
        if isinstance(label, str):
            label = self.parse(label)
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[self.index(label)] = 1.0
        return psi

    # -- per-index tables ---------------------------------------------------

    def photon_numbers(self, site) -> np.ndarray:
        return self._digits[self._digit_slot(site)]

    def atom_levels(self, site, atom) -> np.ndarray:
        return self._digits[self._digit_slot(site, atom)]

    def zero_level_count(self, site, exclude_atom=None) -> np.ndarray:
        """Per-index count of this site's atoms sitting in level 0."""
        total = np.zeros(self.dim, dtype=np.int64)
        for atom in range(self.sites[site].atoms):
            if atom == exclude_atom:
                continue
            total += self.atom_levels(site, atom) == 0
        return total

    def stride(self, site, atom=None) -> int:
        """Index shift per unit change of one atom digit or (atom=None) the photon count."""
        return math.prod(self._radices[self._digit_slot(site, atom) + 1:])

    # -- operators -----------------------------------------------------------

    def transition(self, site, atom, to_level, from_level) -> SparseOp:
        """|to><from| on one atom, identity elsewhere."""
        shape = self.sites[site]
        for lvl in (to_level, from_level):
            if not 0 <= lvl < shape.levels:
                raise ValueError("level out of range")
        digits = self.atom_levels(site, atom)
        cols = np.nonzero(digits == from_level)[0].astype(np.int64)
        shift = (to_level - from_level) * self.stride(site, atom)
        return SparseOp(self.dim, cols + shift, cols, np.ones(cols.size))

    def annihilate(self, site) -> SparseOp:
        y = self.photon_numbers(site)
        cols = np.nonzero(y >= 1)[0].astype(np.int64)
        return SparseOp(self.dim, cols - self.stride(site), cols, np.sqrt(y[cols].astype(float)))

    # -- reductions ----------------------------------------------------------

    def reduced_density(self, psi, site) -> np.ndarray:
        """Density matrix of one site, the rest traced out."""
        if not 0 <= site < len(self.sites):
            raise IndexError("site out of range")
        dims = [s.dim for s in self.sites]
        tensor = psi.reshape(dims)
        tensor = np.moveaxis(tensor, site, 0)
        flat = tensor.reshape(dims[site], -1)
        return flat @ flat.conj().T

    def site_ket(self, site, part) -> np.ndarray:
        """Basis vector of one site's local space, same digit ordering."""
        if not 0 <= site < len(self.sites):
            raise IndexError("site out of range")
        if isinstance(part, str):
            part = tuple(int(c) for c in part)
        shape = self.sites[site]
        radix = [shape.levels] * shape.atoms + [shape.cutoff + 1]
        if len(part) != len(radix):
            raise ValueError("label arity mismatch")
        for d, r in zip(part, radix):
            if not 0 <= d < r:
                raise ValueError("digit out of range")
        v = np.zeros(shape.dim, dtype=np.complex128)
        v[np.ravel_multi_index(part, radix)] = 1.0
        return v


def norm2(psi) -> float:
    return float(np.vdot(psi, psi).real)


def normalized(psi) -> np.ndarray:
    n = np.sqrt(norm2(psi))
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n

