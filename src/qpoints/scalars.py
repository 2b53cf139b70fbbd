"""Exact arithmetic for the multiplicative parameter group of a skew
polynomial algebra, and the matrix of commutation parameters built from it.

Every parameter q_ij lives in a finitely generated abelian group written
multiplicatively: a free part on named generators plus one distinguished
root of unity of order m ("torsion").  All equality questions the package
ever asks reduce to identities in this group, so there is no floating point
anywhere and "generic" simply means "uses a generator nobody else uses".

A matrix is one torsion phase per pair and exponent rows over the named
generators, built by its one constructor, QMatrix(n, table, entries), from
each entry's exponents by name and torsion phase: the JSON reader and the
solver call it, and good_triples and the JSON writer read the arrays.
GroupScalar is the parse and print type of one entry (parse_scalar,
QMatrix.entry, the solutions `forced` prints).  No command reaches its
arithmetic, kept while perfbench/tracer.py wraps it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .lattice import pair_list
from .triples import Triple, _shown, check_triple

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
                raise ScalarError(f"bad generator name {_shown(g)}")
        object.__setattr__(self, "exponents", cleaned)

    @classmethod
    def one(cls, modulus: int = 2) -> "GroupScalar":
        return cls((), 0, modulus)

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
            raise ScalarError(f"bad exponent in token {_shown(token)}") from exc
        if name == TORSION_NAME:
            torsion += e
        elif _is_generator_name(name):
            exps[name] = exps.get(name, 0) + e
        else:
            raise ScalarError(f"bad generator name {_shown(name)} in {_shown(text)}")
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
                raise ScalarError(f"bad generator name {_shown(g)}")
        object.__setattr__(self, "names", names)


@dataclass(frozen=True, init=False, eq=False)
class QMatrix:
    """Multiplicatively antisymmetric (n+1) x (n+1) matrix over the
    parameter group, held as its phases and its exponent rows.

    Both have one entry per pair i < j, in lexicographic order.  phases[p]
    is the torsion phase of the p-th pair, reduced mod the modulus.  The
    exponent rows have column c for table.names[c], and only their nonzero
    entries are kept, sorted by row and then column: entry k is vals[k] at
    (rows[k], cols[k]).  phases has the narrowest integer type that holds
    3 times the modulus, and vals the narrowest that holds 3 times every
    entry, so a signed sum of three rows is exact; either holds Python
    integers (dtype object) beyond int64.  The diagonal is 1 and the lower
    triangle the inverses, by construction; the GroupScalar entries of
    upper, entry and b are built from the arrays when asked for.

    QMatrix(n, table, entries) is the one constructor (see __post_init__),
    and QMatrix(Q.n, Q.table, Q._entries()) == Q.
    """

    n: int
    table: GeneratorTable
    phases: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, n: int, table: GeneratorTable, entries: Mapping) -> None:
        self.__post_init__(n, table, entries)

    def __post_init__(self, n: int, table: GeneratorTable, entries: Mapping) -> None:
        """The row builder that the one constructor, QMatrix(n, table,
        entries), calls: fill the phases and the exponent rows from
        entries[(i, j)] = (exponents, phase), the exponents a map from
        generator name to exponent, zeros allowed (pairs raise
        ScalarError), and the phase an integer taken mod the modulus; a
        GroupScalar q gives the entry (dict(q.exponents), q.torsion).  The
        keys must be exactly the pairs i < j, and the table must hold every
        name of a nonzero exponent, else TableMismatchError names the pair
        and the name.  A phase or nonzero exponent that is not a Python int
        (a float, a bool, a string) raises ScalarError naming its pair, as
        in the JSON reader."""
        if n < 0:
            raise ScalarError("dimension index must be >= 0")
        # Counting first keeps a huge n from walking its pairs.
        if len(entries) != n * (n + 1) // 2:
            raise ScalarError("upper triangle must hold exactly the pairs i < j")
        column, modulus = {g: c for c, g in enumerate(table.names)}, table.torsion_modulus
        phases: list[int] = []
        found: list[tuple[int, int, int]] = []
        for p, pair in enumerate(pair_list(n)):
            try:
                exps, phase = entries[pair]
                if type(phase) is not int:
                    raise ScalarError(f"phase of pair {pair} must be an integer, got {_shown(phase)}")
                phases.append(phase % modulus)
                found += [(p, column[g], e) for g, e in exps.items() if e]
            except KeyError as exc:
                if pair not in entries:
                    raise ScalarError("upper triangle must hold exactly the pairs i < j") from None
                raise TableMismatchError(
                    f"pair {pair} names generator {_shown(exc.args[0])}, which the generator table does not hold"
                ) from None
            except AttributeError:
                raise ScalarError(f"exponents of pair {pair} must map generator names to exponents") from None
        found.sort()  # in linear time when each entry lists its names in table order
        rows, cols, vals = zip(*found) if found else ((), (), ())
        if not set(map(type, vals)) <= {int}:
            p, c, e = next(f for f in found if type(f[2]) is not int)
            raise ScalarError(f"exponent of {table.names[c]} in pair {pair_list(n)[p]} must be an integer, got {_shown(e)}")
        # the narrowest signed types holding +-3 times the modulus and +-3
        # times the largest exponent, so a sum of three entries is exact;
        # object (Python integers) beyond int64
        for name, value in (
            ("n", n),
            ("table", table),
            ("phases", np.array(phases, np.min_scalar_type(-3 * modulus))),
            ("rows", np.array(rows, np.intp)),
            ("cols", np.array(cols, np.intp)),
            ("vals", np.array(vals, np.min_scalar_type(-3 * max(map(abs, vals), default=1)))),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            (self.n, self.table) == (other.n, other.table)
            and np.array_equal(self.phases, other.phases)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def _entries(self) -> dict[tuple[int, int], tuple[dict[str, int], int]]:
        """The constructor's entries, read back from the arrays: each pair's
        nonzero exponents by name in table order, and its phase."""
        names, pairs = self.table.names, pair_list(self.n)
        exps: list[dict] = [{} for _ in pairs]
        for p, c, e in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            exps[p][names[c]] = e
        return dict(zip(pairs, zip(exps, self.phases.tolist())))

    @cached_property
    def upper(self) -> dict[tuple[int, int], GroupScalar]:
        """The upper triangle as {(i, j): q_ij}."""
        return {pair: GroupScalar.from_dict(x, t, self.table.torsion_modulus) for pair, (x, t) in self._entries().items()}

    @classmethod
    def ones(cls, n: int, modulus: int = 2) -> "QMatrix":
        return cls(n, GeneratorTable((), modulus), dict.fromkeys(pair_list(n), ({}, 0)))

    def entry(self, i: int, j: int) -> GroupScalar:
        """q_ij, completing the stored triangle by q_ii = 1, q_ji = q_ij^-1."""
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"index out of range for dimension {self.n}")
        if i == j:
            return GroupScalar.one(self.table.torsion_modulus)
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
        """The matrix with each named generator sent to its image; its table
        is the sorted generator names of the new entries."""
        upper = {p: s.substitute(images) for p, s in self.upper.items()}
        names = sorted({g for s in upper.values() for g in s.generators()})
        table = GeneratorTable(tuple(names), self.table.torsion_modulus)
        return QMatrix(self.n, table, {p: (dict(s.exponents), s.torsion) for p, s in upper.items()})

    def conjugate(self, perm: tuple[int, ...]) -> "QMatrix":
        """Relabeled matrix R with R[i][j] = Q[perm(i)][perm(j)]."""
        upper = {(i, j): self.entry(perm[i], perm[j]) for i, j in pair_list(self.n)}
        return QMatrix(self.n, self.table, {p: (dict(s.exponents), s.torsion) for p, s in upper.items()})

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "torsion_modulus": self.table.torsion_modulus,
            "generators": list(self.table.names),
            "upper": {
                f"{i},{j}": {"torsion": t, "exponents": x}
                for (i, j), (x, t) in self._entries().items()
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


def _json_int(value, what: str, *names) -> int:
    """value, which must be a JSON integer (not a bool, float or string);
    else MatrixFormatError calls it what, its {} fields filled by _shown(names)."""
    if type(value) is not int:
        raise MatrixFormatError(f"{what.format(*map(_shown, names))} must be an integer, got {_shown(value)}")
    return value


def qmatrix_from_json_dict(data: Mapping) -> QMatrix:
    """The matrix of a parsed matrix file, read straight into its exponent
    rows.  n, torsion_modulus, torsion phases and object-form exponents
    must be JSON integers, generators a list of names, and no two pair
    keys may name one pair (as "0,1" and " 0, 1" do), else
    MatrixFormatError; a value the parameter group cannot hold raises
    ScalarError.  Without a generators list, the table is the sorted names
    of the nonzero exponents."""
    if not isinstance(data, Mapping):
        raise MatrixFormatError("matrix JSON must be an object")
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
            raise MatrixFormatError(f"bad pair key {_shown(key)}") from exc
        if pair in keys:
            raise MatrixFormatError(f"pair keys {_shown(keys[pair])} and {_shown(key)} both name the pair {_shown(pair[0])},{_shown(pair[1])}")
        keys[pair] = key
        if type(value) is str:
            exps, phase = _parse_terms(value)
        elif isinstance(value, dict):
            exps, phase = value.get("exponents", {}), value.get("torsion", 0)
            if not isinstance(exps, dict):
                raise MatrixFormatError(f"exponents of pair {_shown(key)} must be an object")
            for g, e in exps.items():
                if _json_int(e, "exponent of {} in pair {}", g, key) and not _is_generator_name(g):
                    raise ScalarError(f"bad generator name {_shown(g)}")
            _json_int(phase, "torsion of pair {}", key)
        else:
            raise MatrixFormatError(f"bad scalar for pair {_shown(key)}: expected a string or an object")
        entries[pair] = (exps, phase)
    if not names:
        names = sorted({g for exps, _ in entries.values() for g, e in exps.items() if e})
    return QMatrix(n, GeneratorTable(tuple(names), modulus), entries)


def _json_value(text: str) -> object:
    """The decoded JSON of an input file, by the one decoder: malformed or
    too deeply nested text, or an integer past the interpreter's digit
    limit, raises MatrixFormatError("invalid JSON: ...")."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # the one other failure: int() past sys.get_int_max_str_digits()
        raise MatrixFormatError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from exc


def qmatrix_from_json(text: str) -> QMatrix:
    return qmatrix_from_json_dict(_json_value(text))
