"""Permutations of {0, ..., n-1}.

A permutation sigma stands for its tropical permutation matrix P, with
P[sigma(i), i] = 0 and -inf elsewhere; that matrix is never built (see
``groups.UnitDecomposition``).
"""

from __future__ import annotations

from operator import index

__all__ = ["Permutation"]


class Permutation:
    """A bijection of {0, ..., n-1}, stored as the tuple of images.

    Each image must be an integer (``operator.index``), and not a bool, as
    for :func:`~maxplus.semiring.scalar`; anything else raises ``TypeError``.
    """

    __slots__ = ("_images",)

    def __init__(self, images):
        imgs = list(images)
        if bool in map(type, imgs):
            raise TypeError("permutation images must be ints, not bool")
        imgs = tuple([index(i) for i in imgs])
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self._images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i]

    def __len__(self):
        return len(self._images)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self):
        return hash(self._images)

    def __repr__(self):
        return f"Permutation({list(self._images)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(self._images[other._images[i]] for i in range(self.n))

    def inverse(self) -> "Permutation":
        return Permutation(invert(self._images))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self._images))

    def cycle_notation(self) -> str:
        """1-based cycle string, e.g. "(2 3)"; the identity prints as "id"."""
        seen = [False] * self.n
        parts = []
        for start in range(self.n):
            if seen[start] or self._images[start] == start:
                seen[start] = True
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i + 1)
                i = self._images[i]
            parts.append("(" + " ".join(str(c) for c in cyc) + ")")
        return "".join(parts) if parts else "id"


def invert(images) -> tuple[int, ...]:
    """Package-internal: the images of the inverse of the permutation with ``images``."""
    inv = [0] * len(images)
    for i, img in enumerate(images):
        inv[img] = i
    return tuple(inv)
