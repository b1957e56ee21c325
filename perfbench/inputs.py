"""Seeded inputs for the qlctx benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain data
(``.gd`` / ``.qs`` text plus the benchmark's own description of the
object), so the program under test only ever sees generated inputs.  The
same seed gives the same inputs.

``PYTHONPATH=src python3 perfbench/inputs.py --seed 0 --out DIR`` writes
every generated input of every workload as ``.gd``, ``.qs`` and text files.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# --- Greechie diagrams --------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """A generated diagram: its ``.gd`` text and the benchmark's own copy of
    its contexts (tuples of atom names), with the expected state count."""

    name: str
    family: str  # "chain" | "ring" | "ks"
    contexts: tuple[tuple[str, ...], ...]
    expected_states: int

    @property
    def atoms(self) -> tuple[str, ...]:
        seen = dict.fromkeys(a for ctx in self.contexts for a in ctx)
        return tuple(seen)

    def gd_text(self) -> str:
        lines = [f"name {self.name}"]
        lines += ["context " + " ".join(ctx) for ctx in self.contexts]
        return "\n".join(lines) + "\n"


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _names(rng, count: int, prefix: str) -> list[str]:
    """Distinct seeded atom names.

    Chains and rings keep their contexts in path order under every seed, so
    that a seed changes the names but not the work of enumerating them."""
    tags = rng.permutation(10 * count)[:count]
    return [f"{prefix}{t}" for t in tags]


def _shuffled(rng, contexts):
    """Seeded order of the contexts and of the atoms inside each context."""
    contexts = [tuple(rng.permutation(ctx)) for ctx in contexts]
    order = rng.permutation(len(contexts))
    return tuple(tuple(str(a) for a in contexts[i]) for i in order)


def tripod_chain(n: int, rng, name: str | None = None) -> Diagram:
    """n tripods in a row, consecutive ones sharing one leg.

    The link atoms c0..cn take 0/1 values with no two neighbours both 1
    (the middle leg of each tripod takes the rest), so the chain has
    F(n + 3) two-valued states.
    """
    c = _names(rng, n + 1, "c")
    m = _names(rng, n, "m")
    contexts = tuple((c[i], m[i], c[i + 1]) for i in range(n))
    return Diagram(name or f"chain{n}", "chain", contexts, fibonacci(n + 3))


def tripod_ring(n: int, rng, name: str | None = None) -> Diagram:
    """n >= 3 tripods in a cycle; L(n) two-valued states (Lucas number)."""
    c = _names(rng, n, "c")
    m = _names(rng, n, "m")
    contexts = tuple((c[i], m[i], c[(i + 1) % n]) for i in range(n))
    return Diagram(name or f"ring{n}", "ring", contexts, lucas(n))


# Cabello, Estebaranz and Garcia-Alcaine (1996): 18 rays of R^4 that form
# 9 orthogonal bases, each ray lying in exactly two of them.
CEG_RAYS = (
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
    (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1),
    (1, -1, -1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1),
    (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (1, 1, -1, 1),
    (1, 1, 1, -1), (-1, 1, 1, 1),
)


def orthogonal_bases(rays: np.ndarray, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """Every set of dim mutually orthogonal rays, as sorted index tuples."""
    n, dim = rays.shape
    unit = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    ortho = np.abs(unit @ unit.conj().T) < tol
    bases = []

    def grow(clique, candidates):
        if len(clique) == dim:
            bases.append(tuple(clique))
            return
        for k, j in enumerate(candidates):
            grow(clique + [j], [i for i in candidates[k + 1:] if ortho[j, i]])

    for i in range(n):
        grow([i], [j for j in range(i + 1, n) if ortho[i, j]])
    return bases


def ks_from_rays(rays, rng, name: str) -> Diagram:
    """Diagram whose contexts are the orthogonal bases among ``rays``.

    The rays are first moved by a seeded random orthogonal map (which keeps
    every orthogonality) and listed in a seeded order, so each seed gives a
    differently labelled and ordered copy of the same set.
    """
    rays = np.asarray(rays, dtype=float)
    q, _ = np.linalg.qr(rng.standard_normal((rays.shape[1],) * 2))
    order = rng.permutation(len(rays))
    moved = (rays @ q.T)[order]
    labels = _names(rng, len(rays), "r")
    bases = orthogonal_bases(moved)
    contexts = [tuple(labels[i] for i in b) for b in bases]
    return Diagram(name, "ks", _shuffled(rng, contexts), 0)


def parity_certificate(contexts) -> bool:
    """True when every atom lies in an even number of contexts and the
    number of contexts is odd.

    Then no two-valued state exists: summing "exactly one true atom" over
    all contexts counts each true atom an even number of times, yet must
    give the odd number of contexts.
    """
    incidence: dict[str, int] = {}
    for ctx in contexts:
        for a in ctx:
            incidence[a] = incidence.get(a, 0) + 1
    return len(contexts) % 2 == 1 and all(k % 2 == 0 for k in incidence.values())


# --- multipartite spin states ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpinState:
    """A benchmark-built state: flattened coefficients in site-major order
    (level 0 = highest magnetic quantum number), as the ``.qs`` format uses."""

    name: str
    sites: int
    dim: int
    coeffs: np.ndarray

    def qs_text(self) -> str:
        lines = [f"# {self.name}", f"sites {self.sites}", f"dim {self.dim}"]
        shape = (self.dim,) * self.sites
        for idx in np.flatnonzero(self.coeffs):
            z = complex(self.coeffs[idx])
            digits = np.unravel_index(int(idx), shape)
            lines.append(f"{z.real!r} {z.imag!r} " + " ".join(map(str, digits)))
        return "\n".join(lines) + "\n"


def product_state(sites: int, dim: int, rng, name: str) -> SpinState:
    levels = rng.integers(0, dim, size=sites)
    c = np.zeros(dim**sites, dtype=complex)
    c[int(np.ravel_multi_index(tuple(levels), (dim,) * sites))] = np.exp(
        2j * np.pi * rng.random())
    return SpinState(name, sites, dim, c)


def ghz_state(sites: int, dim: int, rng, name: str) -> SpinState:
    """(|0...0> + e^{i phi} |d-1...d-1>)/sqrt(2) with a seeded phase."""
    c = np.zeros(dim**sites, dtype=complex)
    c[0] = 1.0
    c[-1] = np.exp(2j * np.pi * rng.random())
    return SpinState(name, sites, dim, c / np.sqrt(2.0))


def spin1_pair_singlet() -> np.ndarray:
    """(|+-> + |-+> - |00>)/sqrt(3) as a 3x3 coefficient tensor."""
    t = np.zeros((3, 3), dtype=complex)
    t[0, 2] = t[2, 0] = 1.0
    t[1, 1] = -1.0
    return t / np.sqrt(3.0)


def spin1_triple_singlet() -> np.ndarray:
    """The totally antisymmetric three-site spin-1 singlet (the epsilon
    tensor written in the S_z basis), normalized."""
    # spherical basis |+>, |0>, |-> from Cartesian e_x, e_y, e_z
    sph = np.array([[-1, -1j, 0], [0, 0, np.sqrt(2)], [1, -1j, 0]]) / np.sqrt(2)
    eps = np.zeros((3, 3, 3))
    for (i, j, k), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                         ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        eps[i, j, k] = s
    # coefficients <m1 m2 m3 | eps> with |m> = sum_x sph[m, x] |x>
    t = np.einsum("ax,by,cz,xyz->abc", sph.conj(), sph.conj(), sph.conj(), eps)
    return t / np.linalg.norm(t)


def singlet_product(rng, name: str) -> SpinState:
    """Seven spin-1 sites in pair, pair and triple singlets, with the sites
    placed in a seeded order: a total-spin-zero state."""
    t = np.einsum("ab,cd,efg->abcdefg", spin1_pair_singlet(),
                  spin1_pair_singlet(), spin1_triple_singlet())
    t = np.transpose(t, rng.permutation(7))
    return SpinState(name, 7, 3, t.reshape(-1).copy())


# --- writing every input ----------------------------------------------------------


def main(argv=None) -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name in workloads.NAMES:
        folder = Path(args.out) / name
        workloads.load(name).build(args.seed, folder)
        print(f"{name}: {len(list(folder.iterdir()))} file(s) in {folder}")


if __name__ == "__main__":
    main()
