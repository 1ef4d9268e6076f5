"""Reference arithmetic and output parsers for the known-answer checks.

The checks recompute expected values with plain schoolbook arithmetic in
Z[mu]/(psi), mu = 2cos(pi/L), written here rather than taken from
``artifact.ring``: the ring kernels and the frieze recurrence are what later
changes optimise, so the oracle must not share their code.  Only the minimal
polynomial psi is read from the program's ring context.
"""

import re


class ExactRing:
    """Integer coefficient vectors reduced modulo a monic minimal polynomial."""

    def __init__(self, L, minpoly):
        self.L = L
        self.psi = tuple(minpoly)
        self.d = len(self.psi) - 1
        self._lam = {}

    def reduce(self, coeffs):
        c = list(coeffs)
        d = self.d
        for k in range(len(c) - 1, d - 1, -1):
            q = c[k]
            if q:
                for j in range(d + 1):
                    c[k - d + j] -= q * self.psi[j]
            c.pop()
        c.extend([0] * (d - len(c)))
        return tuple(c)

    def const(self, k):
        return self.reduce([k])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.reduce(out)

    def lam(self, p):
        """lambda_p = 2cos(pi/p) = t_{L/p}, where t_0 = 2, t_1 = mu and
        t_k = mu t_{k-1} - t_{k-2}."""
        if p not in self._lam:
            if self.L % p:
                raise ValueError("size %d does not divide L = %d" % (p, self.L))
            mu = self.reduce([0, 1])
            prev, cur = self.const(2), mu
            for _ in range(self.L // p - 1):
                prev, cur = cur, self.sub(self.mul(mu, cur), prev)
            self._lam[p] = cur
        return self._lam[p]

    def parse(self, text):
        """Coefficients of a printed element such as ``2 - 3*m + m^3 : 3.41``;
        the decimal hint after the colon is ignored."""
        exact = text.split(":", 1)[0].replace(" ", "")
        if not exact:
            raise ValueError("empty ring element")
        coeffs = [0] * self.d
        pos = 0
        while pos < len(exact):
            mt = _TERM.match(exact, pos)
            sign, num, mono, power = mt.groups()
            if mt.end() == pos or (num is None and mono is None):
                raise ValueError("bad ring element %r" % text)
            k = 0 if mono is None else int(power or 1)
            if k >= self.d:
                raise ValueError("power m^%d beyond degree %d" % (k, self.d))
            coeffs[k] += (-1 if sign == "-" else 1) * int(num or 1)
            pos = mt.end()
        return tuple(coeffs)


_TERM = re.compile(r"([+-]?)(?:(\d+)\*?)?(m(?:\^(\d+))?)?")


class ReferenceFrieze:
    """m_{i,j} of a quiddity cycle (tuple of multisets) by the diagonal
    recurrence m_{i,j} = m_{i,i+2} m_{i+1,j} - m_{i+2,j}, memoised on
    (i mod n, j - i), with the paper's indexing: m_{k,k+2} is the entry of
    the multiset at 1-based cyclic position k+1."""

    def __init__(self, ring, A):
        self.R = ring
        self.n = len(A)
        self.entries = [self._sum(a) for a in A]
        self._memo = {}

    def _sum(self, multiset):
        total = self.R.const(0)
        for p in multiset:
            total = self.R.add(total, self.R.lam(p))
        return total

    def entry(self, i, j):
        d = j - i
        if d <= 0:
            return self.R.const(0)
        if d == 1:
            return self.R.const(1)
        hit = self._memo.get((i % self.n, d))
        if hit is not None:
            return hit
        below, cur = self.R.const(0), self.R.const(1)
        for k in range(j - 2, i - 1, -1):
            key = (k % self.n, j - k)
            hit = self._memo.get(key)
            if hit is None:
                q = self.entries[k % self.n]
                hit = self.R.sub(self.R.mul(q, cur), below)
                self._memo[key] = hit
            below, cur = cur, hit
        return cur

    def finite_within(self, depth):
        """An all-ones row followed by an all-zeros row by ``depth``."""
        one, zero = self.R.const(1), self.R.const(0)
        n = self.n
        return any(all(self.entry(i, i + w + 2) == one for i in range(n))
                   and all(self.entry(i, i + w + 3) == zero for i in range(n))
                   for w in range(depth))

    def growth(self, k):
        """s_k = m_{0,kn+1} - m_{1,kn}."""
        n = self.n
        return self.R.sub(self.entry(0, k * n + 1), self.entry(1, k * n))


def split_cells(line):
    """Cells of one printed frieze row: columns are padded to at least two
    spaces, while a cell itself holds single spaces only."""
    line = line.strip()
    return re.split(r" {2,}", line) if line else []
