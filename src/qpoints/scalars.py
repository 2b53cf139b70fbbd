"""Exact arithmetic for the multiplicative parameter group of a skew
polynomial algebra, and the matrix of commutation parameters built from it.

Every parameter q_ij lives in a finitely generated abelian group written
multiplicatively: a free part on named generators plus one distinguished
root of unity of order m ("torsion").  All equality questions the package
ever asks reduce to identities in this group, so there is no floating point
anywhere and "generic" simply means "uses a generator nobody else uses".

A matrix is its exponent array, not a table of GroupScalar objects: the
JSON reader and the solver write the integer exponent rows directly, and
the good-triple pass reads them as they are.  GroupScalar is the type of
the compact string syntax and of single entries, built only when an entry
is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .lattice import pair_list
from .triples import Triple, check_triple

#: Reserved name for the distinguished root of unity in the string syntax.
TORSION_NAME = "w"


def _is_generator_name(name: str) -> bool:
    """Whether name may name a free generator: an ASCII identifier, a
    letter or _ followed by letters, digits and _, other than w."""
    return name != TORSION_NAME and name.isascii() and name.isidentifier()


class ScalarError(ValueError):
    """Invalid scalar construction or parse."""


class TableMismatchError(ScalarError):
    """Operands belong to incompatible generator tables."""


@dataclass(frozen=True)
class GroupScalar:
    """An element g1^e1 * ... * gk^ek * w^t of the parameter group.

    exponents holds only nonzero entries, sorted by generator name; torsion
    is reduced mod the modulus.  Equality is structural equality of this
    canonical form.
    """

    exponents: tuple[tuple[str, int], ...]
    torsion: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ScalarError("torsion modulus must be >= 1")
        object.__setattr__(self, "torsion", self.torsion % self.modulus)
        cleaned = tuple(sorted((g, e) for g, e in self.exponents if e != 0))
        names = [g for g, _ in cleaned]
        if len(set(names)) != len(names):
            raise ScalarError("duplicate generator in exponent list")
        for g in names:
            if not _is_generator_name(g):
                raise ScalarError(f"bad generator name {g!r}")
        object.__setattr__(self, "exponents", cleaned)

    @classmethod
    def one(cls, modulus: int = 2) -> "GroupScalar":
        return cls((), 0, modulus)

    @classmethod
    def generator(cls, name: str, modulus: int = 2) -> "GroupScalar":
        return cls(((name, 1),), 0, modulus)

    @classmethod
    def root_of_unity(cls, modulus: int = 2) -> "GroupScalar":
        return cls((), 1, modulus)

    @classmethod
    def from_dict(
        cls, exponents: Mapping[str, int], torsion: int = 0, modulus: int = 2
    ) -> "GroupScalar":
        return cls(tuple(exponents.items()), torsion, modulus)

    def generators(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.exponents)

    @property
    def is_one(self) -> bool:
        return not self.exponents and self.torsion == 0

    def __mul__(self, other: "GroupScalar") -> "GroupScalar":
        if not isinstance(other, GroupScalar):
            return NotImplemented
        if other.modulus != self.modulus:
            raise TableMismatchError(
                f"torsion moduli differ: {self.modulus} vs {other.modulus}"
            )
        exps = dict(self.exponents)
        for g, e in other.exponents:
            exps[g] = exps.get(g, 0) + e
        return GroupScalar(tuple(exps.items()), self.torsion + other.torsion, self.modulus)

    def inverse(self) -> "GroupScalar":
        return GroupScalar(
            tuple((g, -e) for g, e in self.exponents), -self.torsion, self.modulus
        )

    def __pow__(self, k: int) -> "GroupScalar":
        return GroupScalar(
            tuple((g, e * k) for g, e in self.exponents), self.torsion * k, self.modulus
        )

    def __truediv__(self, other: "GroupScalar") -> "GroupScalar":
        return self * other.inverse()

    def substitute(self, images: Mapping[str, "GroupScalar"]) -> "GroupScalar":
        """Apply the group homomorphism sending each named generator to its
        image; generators absent from the mapping are kept."""
        out = GroupScalar((), self.torsion, self.modulus)
        for g, e in self.exponents:
            img = images.get(g)
            out = out * (img ** e if img is not None else GroupScalar(((g, e),), 0, self.modulus))
        return out

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = [g if e == 1 else f"{g}^{e}" for g, e in self.exponents]
        if self.torsion:
            parts.append(
                TORSION_NAME if self.torsion == 1 else f"{TORSION_NAME}^{self.torsion}"
            )
        return "*".join(parts)


def _parse_terms(text: str) -> tuple[dict[str, int], int]:
    """Exponents by generator name, and the power of w, of the compact
    string form; repeated names are summed."""
    text = text.strip()
    exps: dict[str, int] = {}
    torsion = 0
    if text in ("1", ""):
        return exps, torsion
    for token in text.split("*"):
        token = token.strip()
        name, caret, power = token.partition("^")
        name = name.strip()
        try:
            if not power.isascii() or "_" in power:
                raise ValueError(power)
            e = int(power) if caret else 1
        except ValueError as exc:
            raise ScalarError(f"bad exponent in token {token!r}") from exc
        if name == TORSION_NAME:
            torsion += e
        elif _is_generator_name(name):
            exps[name] = exps.get(name, 0) + e
        else:
            raise ScalarError(f"bad generator name {name!r} in {text!r}")
    return exps, torsion


def parse_scalar(text: str, modulus: int = 2) -> GroupScalar:
    """Parse the compact string form, e.g. "a*b^-1*w" or "1"."""
    return GroupScalar.from_dict(*_parse_terms(text), modulus)


@dataclass(frozen=True)
class GeneratorTable:
    """The named free generators and torsion order a matrix draws from."""

    names: tuple[str, ...] = ()
    torsion_modulus: int = 2

    def __post_init__(self) -> None:
        if self.torsion_modulus < 1:
            raise ScalarError("torsion modulus must be >= 1")
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ScalarError("generator names must be unique")
        for g in names:
            if not _is_generator_name(g):
                raise ScalarError(f"bad generator name {g!r}")
        object.__setattr__(self, "names", names)

    def one(self) -> GroupScalar:
        return GroupScalar.one(self.torsion_modulus)

    @cached_property
    def _columns(self) -> dict[str, int]:
        """Column of each generator in a matrix's exponent rows: c for
        names[c - 1], column 0 being the torsion phase."""
        return {g: c for c, g in enumerate(self.names, 1)}

    def gen(self, name: str) -> GroupScalar:
        if name not in self._columns:
            raise ScalarError(f"unknown generator {name!r}")
        return GroupScalar.generator(name, self.torsion_modulus)


@dataclass(frozen=True, init=False, eq=False)
class QMatrix:
    """Multiplicatively antisymmetric (n+1) x (n+1) matrix over the
    parameter group, held as its exponent array.

    The array has one row per pair i < j, in lexicographic order, with
    column 0 for the torsion phase (reduced mod the modulus) and column c
    for the exponent of table.names[c - 1].  Only its nonzero entries are
    kept, sorted by row and then column: entry k is vals[k] at (rows[k],
    cols[k]).  vals has the narrowest integer type that holds 3 times the
    modulus and every entry, so a signed sum of three rows is exact, and
    holds Python integers (dtype object) beyond int64.  The diagonal is 1
    and the lower triangle the inverses, by construction; the GroupScalar
    entries of upper, entry and b are built from the array when asked for.
    """

    n: int
    table: GeneratorTable
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(
        self,
        n: int,
        upper: Mapping[tuple[int, int], GroupScalar],
        table: GeneratorTable | None = None,
    ) -> None:
        """The matrix with the given upper triangle.  Without a table, it is
        the sorted generator names of the entries and their common modulus."""
        moduli = {s.modulus for s in upper.values()}
        if table is None:
            if len(moduli) > 1:
                raise TableMismatchError("entries use different torsion moduli")
            names = sorted({g for s in upper.values() for g in s.generators()})
            table = GeneratorTable(tuple(names), moduli.pop() if moduli else 2)
        elif moduli - {table.torsion_modulus}:
            raise TableMismatchError("matrix entry not admitted by generator table")
        self.__post_init__(n, table, {p: (s.exponents, s.torsion) for p, s in upper.items()})

    @classmethod
    def _of_entries(cls, n: int, table: GeneratorTable, entries: Mapping) -> "QMatrix":
        """The matrix of entries, as in __post_init__, without GroupScalars."""
        Q = cls.__new__(cls)
        Q.__post_init__(n, table, entries)
        return Q

    def __post_init__(self, n: int, table: GeneratorTable, entries: Mapping) -> None:
        """The step both constructors end in: fill the exponent rows from
        entries[(i, j)] = (exponents, phase), the exponents as (name,
        exponent) pairs, zeros allowed, and the phase reduced mod the
        modulus.  The keys must be exactly the pairs i < j, and the table
        must hold every name of a nonzero exponent."""
        if n < 0:
            raise ScalarError("dimension index must be >= 0")
        # Counting first keeps a huge n from walking its pairs.
        if len(entries) != n * (n + 1) // 2:
            raise ScalarError("upper triangle must hold exactly the pairs i < j")
        column = table._columns
        found: list[tuple[int, int, int]] = []
        for p, pair in enumerate(pair_list(n)):
            try:
                exps, phase = entries[pair]
                if phase:
                    found.append((p, 0, phase))
                found += [(p, column[g], e) for g, e in exps if e]
            except KeyError:
                if pair not in entries:
                    raise ScalarError("upper triangle must hold exactly the pairs i < j") from None
                raise TableMismatchError("matrix entry not admitted by generator table") from None
        found.sort()  # in linear time when each entry lists its names in table order
        rows, cols, vals = zip(*found) if found else ((), (), ())
        # the narrowest type holding +-3 times the largest entry, so a sum
        # of three rows is exact; object (Python integers) beyond int64
        dtype = np.min_scalar_type(-3 * max([table.torsion_modulus, *map(abs, vals)]))
        for name, value in (
            ("n", n),
            ("table", table),
            ("rows", np.array(rows, np.intp)),
            ("cols", np.array(cols, np.intp)),
            ("vals", np.array(vals, dtype)),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            (self.n, self.table) == (other.n, other.table)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    @cached_property
    def upper(self) -> dict[tuple[int, int], GroupScalar]:
        """The upper triangle as {(i, j): q_ij}."""
        names, modulus = self.table.names, self.table.torsion_modulus
        pairs = pair_list(self.n)
        exps: list[list[tuple[str, int]]] = [[] for _ in pairs]
        phase = [0] * len(pairs)
        for p, c, e in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            if c:
                exps[p].append((names[c - 1], e))
            else:
                phase[p] = e
        return {
            pair: GroupScalar(tuple(x), t, modulus) for pair, x, t in zip(pairs, exps, phase)
        }

    @classmethod
    def ones(cls, n: int, modulus: int = 2) -> "QMatrix":
        upper = dict.fromkeys(pair_list(n), GroupScalar.one(modulus))
        return cls(n, upper, GeneratorTable((), modulus))

    def entry(self, i: int, j: int) -> GroupScalar:
        """q_ij, completing the stored triangle by q_ii = 1, q_ji = q_ij^-1."""
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"index out of range for dimension {self.n}")
        if i == j:
            return self.table.one()
        if i < j:
            return self.upper[(i, j)]
        return self.upper[(j, i)].inverse()

    def b(self, t: Triple) -> GroupScalar:
        """The obstruction scalar q_ij * q_jk * q_ik^-1 of a triple.

        It equals 1 exactly when the principal 3x3 block at (i, j, k) has
        rank one, i.e. when the corresponding coordinate plane lies in the
        point variety.
        """
        i, j, k = check_triple(t, self.n)
        return self.entry(i, j) * self.entry(j, k) * self.entry(i, k).inverse()

    def substitute(self, images: Mapping[str, GroupScalar]) -> "QMatrix":
        upper = {p: s.substitute(images) for p, s in self.upper.items()}
        return QMatrix(self.n, upper)

    def conjugate(self, perm: tuple[int, ...]) -> "QMatrix":
        """Relabeled matrix R with R[i][j] = Q[perm(i)][perm(j)]."""
        upper = {(i, j): self.entry(perm[i], perm[j]) for i, j in pair_list(self.n)}
        return QMatrix(self.n, upper, self.table)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "torsion_modulus": self.table.torsion_modulus,
            "generators": list(self.table.names),
            "upper": {
                f"{i},{j}": {
                    "torsion": s.torsion,
                    "exponents": {g: e for g, e in s.exponents},
                }
                for (i, j), s in sorted(self.upper.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def __str__(self) -> str:
        rows = []
        for i in range(self.n + 1):
            rows.append("  ".join(str(self.entry(i, j)) for j in range(self.n + 1)))
        return "\n".join(rows)


class MatrixFormatError(ValueError):
    """Matrix JSON is structurally malformed."""


def _json_int(value, what: str) -> int:
    """value, which must be a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise MatrixFormatError(f"{what} must be an integer, got {value!r}")
    return value


def qmatrix_from_json_dict(data: Mapping) -> QMatrix:
    """The matrix of a parsed matrix file, read straight into its exponent
    rows.  n, torsion_modulus, torsion phases and object-form exponents
    must be JSON integers, generators a list of names, and no two pair
    keys may name one pair (as "0,1" and " 0, 1" do), else
    MatrixFormatError; a value the parameter group cannot hold raises
    ScalarError.  Without a generators list, the table is the sorted names
    of the nonzero exponents."""
    try:
        n, raw_upper = data["n"], data["upper"]
    except KeyError as exc:
        raise MatrixFormatError(f"bad matrix JSON: missing key {exc}") from exc
    n = _json_int(n, "n")
    modulus = _json_int(data.get("torsion_modulus", 2), "torsion_modulus")
    names = data.get("generators", [])
    if not (isinstance(names, list) and all(type(g) is str for g in names)):
        raise MatrixFormatError("generators must be a list of names")
    if modulus < 1:
        raise ScalarError("torsion modulus must be >= 1")
    if not isinstance(raw_upper, Mapping):
        raise MatrixFormatError("upper must be an object of pair keys")
    entries, keys = {}, {}
    for key, value in raw_upper.items():
        try:
            i_str, j_str = str(key).split(",")
            pair = (int(i_str), int(j_str))
        except ValueError as exc:
            raise MatrixFormatError(f"bad pair key {key!r}") from exc
        if pair in keys:
            raise MatrixFormatError(f"pair keys {keys[pair]!r} and {key!r} both name the pair {pair[0]},{pair[1]}")
        keys[pair] = key
        if type(value) is str:
            exps, phase = _parse_terms(value)
        elif isinstance(value, dict):
            exps, phase = value.get("exponents", {}), value.get("torsion", 0)
            if not isinstance(exps, dict):
                raise MatrixFormatError(f"exponents of pair {key!r} must be an object")
            for g, e in exps.items():
                if type(e) is not int:
                    raise MatrixFormatError(f"exponent of {g!r} in pair {key!r} must be an integer, got {e!r}")
                if e and not _is_generator_name(g):
                    raise ScalarError(f"bad generator name {g!r}")
            if type(phase) is not int:
                raise MatrixFormatError(f"torsion of pair {key!r} must be an integer, got {phase!r}")
        else:
            raise MatrixFormatError(f"bad scalar for pair {key!r}: expected a string or an object")
        entries[pair] = (exps.items(), phase % modulus)
    if not names:
        names = sorted({g for exps, _ in entries.values() for g, e in exps if e})
    return QMatrix._of_entries(n, GeneratorTable(tuple(names), modulus), entries)


def _matrix_json(text: str) -> dict:
    """The decoded JSON object of a matrix file, its fields not yet read."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MatrixFormatError("matrix JSON must be an object")
    return data


def qmatrix_from_json(text: str) -> QMatrix:
    return qmatrix_from_json_dict(_matrix_json(text))
