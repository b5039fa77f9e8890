"""Exact sparse linear algebra over Q, prime fields, and Z.

Rank, linear solve, and kernel bases over an exact field, together with
Smith normal form over the integers.  Everything is arbitrary precision:
mod-p scalars are ints reduced into [0, p), and over Q an integral value
is a Python int and any other a `fractions.Fraction`.  No floating point
is used anywhere, and no two ints are ever divided; exactness is the
correctness contract.

There is one matrix type, `ExactMatrix`.  An integer matrix is an
`ExactMatrix` over Q whose entries are all ints (`IntMatrix` only builds
one); `over_field` reads it over F_p by reducing each entry and over Q
returns it unchanged, and `smith_normal_form` takes only such a matrix.
Matrices are stored sparsely as {(row, col): value} with no explicit
zeros.  Every elimination indexes the nonzeros by row and by column and
keeps the rows in buckets by number of nonzeros, each bucket in
ascending row order, and every elimination step is one row operation, `_add_row`: row dst += factor * row src,
reduced mod p over F_p, with both indexes and the buckets kept in step.
Each caller has one pivot rule:
- `rank` pivots in the lowest-index shortest row, on its entry whose
  column has the fewest nonzeros (lowest column on ties); over Q a +-1
  pivot is its own inverse, so integer rows stay ints under it;
- `smith_normal_form` pivots on a +-1 entry of the shortest row that
  holds one, chosen the same way, and falls back to the entry of least
  absolute value only when no unit remains; it clears that pivot's
  column by division with remainder and, since A and its transpose have
  one Smith form, clears the pivot's row as a column of the transpose;
- `solve` and `nullspace` eliminate columns left to right (`_echelon`)
  and share one back-substitution (`_back_substitute`).
Rank and elementary divisors do not depend on the pivot order.  `solve`
and `nullspace` do, so their answers are the ones their docstrings
specify.  The Smith form peels off any diagonal and then turns it into
the divisibility chain by gcd/lcm exchanges, so no pivot needs to divide
the rest of the matrix.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]


# Miller-Rabin with the first 13 primes as bases decides primality of
# every n below _PRIME_TEST_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above `_PRIME_TEST_BOUND`."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"cannot test {n} for primality: it is not below {_PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The rationals (``char == 0``) or the prime field F_p (``char == p``).

    Immutable, and equal and hashed by its characteristic, so a field is a
    memo key.
    """

    __slots__ = ("char",)

    def __init__(self, char: int = 0) -> None:
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        object.__setattr__(self, "char", char)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.char == other.char

    def __hash__(self) -> int:
        return hash(self.char)

    def __repr__(self) -> str:
        return f"FieldSpec(char={self.char})"

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def from_token(cls, token: str) -> "FieldSpec":
        """Read "Q", "F2", "F3", ...: only a token that `token` writes back unchanged."""
        if token == "Q":
            return cls(0)
        if token[:1] == "F" and token[1:].isdecimal():
            field = cls(int(token[1:]))
            if field.token() == token:
                return field
        raise ValueError(f"unknown field token {token!r}")

    def token(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    # -- scalar arithmetic -------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.char == 0 else 1

    def of(self, value: Union[int, Fraction, str]) -> Scalar:
        """Coerce an int, Fraction, or "num/den" string into the field.

        Over Q an integral value comes back as an int and any other as a
        Fraction, so an integer matrix over Q keeps int entries.
        """
        p = self.char
        if type(value) is not int:
            f = Fraction(value)
            if f.denominator != 1:
                if not p:
                    return f
                den = f.denominator % p
                if den == 0:
                    raise ZeroDivisionError(f"denominator divisible by {p}")
                return f.numerator % p * pow(den, -1, p) % p
            value = f.numerator
        return value % p if p else value

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a: Scalar) -> Scalar:
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, -1, self.char)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def to_string(self, a: Scalar) -> str:
        if self.char == 0:
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return str(a)


QQ = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)


class ExactMatrix:
    """Immutable sparse matrix over an exact field (Q or F_p).

    Over Q an integral entry is stored as an int, so an integer matrix is
    a matrix over Q whose entries are all ints (see `IntMatrix`).
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        field: FieldSpec,
        entries: Mapping[tuple[int, int], Union[int, Fraction, str]] = (),
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.field = field
        clean: dict[tuple[int, int], Scalar] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) out of bounds for {rows}x{cols}")
            fv = field.of(v)
            if fv != 0:
                clean[(r, c)] = fv
        self.entries = clean

    @staticmethod
    def from_rows(data: Sequence[Sequence[Union[int, Fraction]]], field: FieldSpec) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged row data")
            for c, v in enumerate(row):
                entries[(r, c)] = v
        return ExactMatrix(rows, cols, field, entries)

    @staticmethod
    def zeros(rows: int, cols: int, field: FieldSpec) -> "ExactMatrix":
        return ExactMatrix(rows, cols, field, {})

    @staticmethod
    def identity(n: int, field: FieldSpec) -> "ExactMatrix":
        return ExactMatrix(n, n, field, {(i, i): field.one for i in range(n)})

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, self.field, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        fd = self.field
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Scalar] = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                out[key] = fd.add(out.get(key, fd.zero), fd.mul(a, b))
        return ExactMatrix(self.rows, other.cols, fd, out)

    def mul_vector(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        fd = self.field
        out = [fd.zero] * self.rows
        for (r, c), v in self.entries.items():
            out[r] = fd.add(out[r], fd.mul(v, vec[c]))
        return out

    def over_field(self, field: FieldSpec) -> "ExactMatrix":
        """This matrix over ``field``: itself over its own field, a matrix over Q reduced mod p."""
        if field == self.field:
            return self
        if self.field.char:
            raise ValueError(f"a matrix over {self.field.token()} cannot be read over {field.token()}")
        m = ExactMatrix(self.rows, self.cols, field)
        p, of = field.char, field.of  # entries are in bounds already, so only reduce them
        m.entries = {k: r for k, v in self.entries.items() if (r := v % p if type(v) is int else of(v))}
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field.token()}, nnz={self.nnz})"


class IntMatrix(ExactMatrix):
    """An integer matrix: an `ExactMatrix` over Q whose entries are all ints.

    Only the constructors are its own; an entry that is not an integer
    raises ValueError.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], int] = ()) -> None:
        super().__init__(rows, cols, QQ, entries)
        if not all(type(v) is int for v in self.entries.values()):
            raise ValueError("integer matrix entries must be integers")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        m = ExactMatrix.from_rows(data, QQ)
        return cls(m.rows, m.cols, m.entries)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        n = len(diag)
        return cls(rows or n, cols or n, {(i, i): d for i, d in enumerate(diag)})


class SmithForm:
    """Rank and elementary divisors d_1 | d_2 | ... | d_r (each >= 1).

    Immutable, and equal and hashed by its rank and divisors.
    """

    __slots__ = ("rank", "elementary_divisors")

    def __init__(self, rank: int, elementary_divisors: tuple[int, ...]) -> None:
        ds = elementary_divisors
        if len(ds) != rank:
            raise ValueError("number of divisors must equal rank")
        if any(d < 1 for d in ds):
            raise ValueError("divisors must be >= 1")
        if any(ds[i + 1] % ds[i] != 0 for i in range(len(ds) - 1)):
            raise ValueError("divisibility chain violated")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "elementary_divisors", ds)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmithForm):
            return NotImplemented
        return self.rank == other.rank and self.elementary_divisors == other.elementary_divisors

    def __hash__(self) -> int:
        return hash((self.rank, self.elementary_divisors))

    @property
    def torsion_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.elementary_divisors if d > 1)


# ---------------------------------------------------------------------------
# Rank, solve, nullspace
# ---------------------------------------------------------------------------


def _index(entries) -> tuple[dict, dict[int, set[int]], dict[int, list[int]]]:
    """Nonzeros by row {r: {c: v}} and by column {c: {r, ...}}, and row ids by length {nnz: [r, ...]}.

    ``entries`` is an iterable of ((row, col), value) pairs with no zero
    value.  Each bucket lists its row ids in ascending order.
    """
    rows: dict[int, dict] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries:
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    buckets: dict[int, list[int]] = {}
    for r in sorted(rows):
        buckets.setdefault(len(rows[r]), []).append(r)
    return rows, cols, buckets


def _rebucket(buckets: dict[int, list[int]], r: int, old: int, new: int) -> None:
    """Move row r from the bucket for length old to the one for length new.

    Length 0 means "no row": old == 0 only adds, new == 0 only removes.
    Empty buckets are deleted, so ``min(buckets)`` is the shortest row length,
    and each bucket stays in ascending order, found by bisection.
    """
    if old:
        bucket = buckets[old]
        del bucket[bisect_left(bucket, r)]
        if not bucket:
            del buckets[old]
    if new:
        bucket = buckets.get(new)
        if bucket is None:
            buckets[new] = [r]
        else:
            insort(bucket, r)


def _pop_row(rows, cols, buckets, r: int) -> None:
    """Remove row r from the row, column and bucket indexes."""
    row = rows.pop(r)
    _rebucket(buckets, r, len(row), 0)
    for c in row:
        rest = cols[c]
        rest.discard(r)
        if not rest:
            del cols[c]


def _sparsest_col(cols, candidates) -> int:
    """The candidate column with the fewest nonzeros, lowest column on ties; -1 if none."""
    pc, least = -1, 0
    for c in candidates:
        n = len(cols[c])
        if pc < 0 or n < least or (n == least and c < pc):
            pc, least = c, n
    return pc


def _add_row(rows, cols, buckets, src: int, dst: int, factor: Scalar, p: int) -> None:
    """Row dst += factor * row src (src != dst), reduced mod p unless p is 0.

    This is the only row operation of the eliminations here.  Row src
    stays indexed, so every column it touches keeps a nonempty entry in
    cols; the column index and the length buckets are kept in step, and a
    row that empties is dropped.
    """
    row = rows[dst]
    old = len(row)
    for c, v in rows[src].items():
        cur = row.get(c)
        if cur is None:
            row[c] = factor * v % p if p else factor * v
            cols[c].add(dst)
        else:
            new = (cur + factor * v) % p if p else cur + factor * v
            if new:
                row[c] = new
            else:
                del row[c]
                cols[c].discard(dst)
    if len(row) != old:
        _rebucket(buckets, dst, old, len(row))
    if not row:
        del rows[dst]


def rank(m: ExactMatrix) -> int:
    """Field rank by sparse elimination.

    Pivot row: the lowest-index row among those with the fewest nonzeros.
    Pivot column: the entry of that row whose column has the fewest
    nonzeros, ties at the lowest column.  Rows are kept in buckets by
    length, so choosing a pivot never rescans the matrix.
    """
    p = m.field.char
    rows, cols, buckets = _index(m.entries.items())
    rk = 0
    while buckets:
        pr = buckets[min(buckets)][0]
        _pivot_out(rows, cols, buckets, pr, _sparsest_col(cols, rows[pr]), p)
        rk += 1
    return rk


def _pivot_out(rows, cols, buckets, pr: int, pc: int, p: int) -> None:
    """Clear column pc with row pr, reduced mod p unless p is 0, then drop row pr."""
    piv = rows[pr][pc]
    if p:
        minus_inv = -pow(piv, -1, p)
    else:  # a +-1 pivot is its own inverse, so integer rows stay ints
        minus_inv = -piv if piv == 1 or piv == -1 else -1 / Fraction(piv)
    for r in list(cols[pc]):
        if r != pr:
            factor = rows[r][pc] * minus_inv  # -a / pivot clears column pc of row r
            _add_row(rows, cols, buckets, pr, r, factor % p if p else factor, p)
    _pop_row(rows, cols, buckets, pr)


def _echelon(
    m: ExactMatrix, rhs: Optional[Sequence[Scalar]] = None
) -> tuple[dict[int, dict[int, Scalar]], list[tuple[int, int]], Optional[list[Scalar]]]:
    """Forward elimination, columns left to right, pivoting in the lowest unused row.

    Returns (rows, pivots, rhs) where pivots is a list of (row, col) in
    elimination order and rows maps surviving row indices to sparse rows.
    """
    fd = m.field
    rows, cols, buckets = _index(m.entries.items())
    b = [fd.of(x) for x in rhs] if rhs is not None else None
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    for c in range(m.cols):
        candidates = [r for r in cols.get(c, ()) if r not in used]
        if not candidates:
            continue
        pr = min(candidates)
        used.add(pr)
        pivots.append((pr, c))
        piv = rows[pr][c]
        for r in candidates:
            if r != pr:
                factor = fd.neg(fd.div(rows[r][c], piv))
                _add_row(rows, cols, buckets, pr, r, factor, fd.char)
                if b is not None:
                    b[r] = fd.add(b[r], fd.mul(factor, b[pr]))
    return rows, pivots, b


def solve(m: ExactMatrix, b: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """An exact solution x of m x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    Raises ValueError on a dimension mismatch.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs has length {len(b)}, expected {m.rows}")
    fd = m.field
    rows, pivots, rhs = _echelon(m, b)
    assert rhs is not None
    pivot_rows = {r for r, _ in pivots}
    for r in range(m.rows):
        if r not in pivot_rows and rhs[r] != 0:
            return None
    return _back_substitute(fd, rows, pivots, [fd.zero] * m.cols, rhs)


def nullspace(m: ExactMatrix) -> list[list[Scalar]]:
    """A basis of ker(m), one vector per free column, in column order."""
    fd = m.field
    rows, pivots, _ = _echelon(m)
    pivot_cols = {c for _, c in pivots}
    zero = [fd.zero] * m.rows
    basis = []
    for f in range(m.cols):
        if f not in pivot_cols:
            x: list[Scalar] = [fd.zero] * m.cols
            x[f] = fd.one
            basis.append(_back_substitute(fd, rows, pivots, x, zero))
    return basis


def _back_substitute(fd: FieldSpec, rows, pivots, x: list[Scalar], rhs: Sequence[Scalar]) -> list[Scalar]:
    """Set x's pivot entries, last pivot first, so that every echelon row r reads rhs[r].

    The free entries of x are taken as given.
    """
    for r, c in reversed(pivots):
        acc = rhs[r]
        for cc, v in rows[r].items():
            if cc != c:
                acc = fd.sub(acc, fd.mul(v, x[cc]))
        x[c] = fd.div(acc, rows[r][c])
    return x


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _unit_pivot(rows, cols, buckets, no_unit: set[int]) -> tuple[int, int]:
    """A +-1 entry in the shortest row holding one, or (-1, -1) if there is none.

    Rows of equal length are tried from the lowest index; within the row
    the unit whose column has the fewest nonzeros wins, lowest column on ties.
    Rows in ``no_unit`` are known to hold no unit and are skipped; every
    row tried and found without one is added to it.
    """
    for length in sorted(buckets):
        for r in buckets[length]:
            if r not in no_unit:
                pc = _sparsest_col(cols, [c for c, v in rows[r].items() if v == 1 or v == -1])
                if pc >= 0:
                    return r, pc
                no_unit.add(r)
    return -1, -1


def smith_normal_form(m: ExactMatrix) -> SmithForm:
    """Smith normal form by sparse integer elimination.

    Phase one diagonalises with integer row operations only.  The pivot
    is a +-1 entry from the shortest row that holds one (see
    `_unit_pivot`): its column is cleared and its row is dropped as a
    diagonal 1, the step `rank` takes.  Only when no unit remains is the
    pivot the entry of least absolute value, ties at the lowest (row,
    col).  Its column is cleared by division with remainder; a remainder
    is a smaller entry, and the pivot is picked anew.  When the column is
    clear and the row is not, the rest of the matrix is re-indexed as its
    transpose, which has the same Smith form, and the same pivot clears
    its row there as a column; a pivot is transposed at most once.  Once
    its row and column are clear, its absolute value is peeled off
    whether or not it divides the rest.
    Phase two turns that diagonal into the divisibility chain, since
    diag(a, b) and diag(gcd, lcm) are equivalent: it exchanges gcd and
    lcm among the entries > 1 until each divides the next and puts the
    1s first.

    Raises ValueError unless m is over Q with int entries, an integer matrix.
    """
    if m.field != QQ or not all(type(v) is int for v in m.entries.values()):
        raise ValueError(f"Smith normal form needs an integer matrix, got {m!r}")
    rows, cols, buckets = _index(m.entries.items())
    no_unit: set[int] = set()  # rows without a +-1 entry; a row leaves when a row operation changes it
    diagonal: list[int] = []
    while rows:
        pr, pc = _unit_pivot(rows, cols, buckets, no_unit)
        if pr >= 0:
            no_unit -= cols[pc]
            _pivot_out(rows, cols, buckets, pr, pc, 0)
            diagonal.append(1)
            continue
        _, pr, pc = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        piv = rows[pr][pc]
        while True:
            no_unit -= cols[pc]
            for r in list(cols[pc]):
                if r != pr:  # |rows[r][pc]| >= |piv|, so the quotient is never 0
                    _add_row(rows, cols, buckets, pr, r, -(rows[r][pc] // piv), 0)
            if len(cols[pc]) > 1 or len(rows[pr]) == 1:
                break
            # the column is clear and the row is not: clear the row as a
            # column of the transpose, with the same pivot; row ids now
            # name the old columns, so nothing is known about their units
            rows, cols, buckets = _index(((c, r), v) for r, row in rows.items() for c, v in row.items())
            no_unit.clear()
            pr, pc = pc, pr
        if len(cols[pc]) == 1:  # the row is clear too
            diagonal.append(abs(piv))
            _pop_row(rows, cols, buckets, pr)
        # otherwise a remainder is left: a smaller entry to pivot on

    # repair the divisibility chain (diag(a, b) ~ diag(gcd, lcm)); units
    # divide everything, so only the entries > 1 take part
    ds = [d for d in diagonal if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
    ds.sort()
    units = len(diagonal) - len(ds)
    return SmithForm(rank=len(diagonal), elementary_divisors=(1,) * units + tuple(ds))
