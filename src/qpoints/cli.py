"""Command-line front end.

Subcommands: pts, enumerate, graph, realize, sinks, forced.  All commands
are deterministic; identical inputs produce byte-identical outputs (fresh
generator names are sequential).  enumerate, graph and realize write their
body to stdout or, with --out F, to the file F and its manifest
F.manifest.json; their summary line always goes to stdout.  Node
enumeration at N = 5 (enumerate --nodes, graph, sinks) needs --long, a
rule of this module alone: the library functions take n alone, and
enumerate --adequate and realize --class never need it.  Exit codes: 0 ok,
2 parse/usage, --long missing, or a file, stdout included, that cannot be
read or written, 3 input invariant violation or input beyond a size bound
(for pts: n above variety.VARIETY_MAX_N = 200, checked before the matrix
entries are read, or more than variety.COMPONENTS_LIMIT = 100 000
components), 4 input not adequate, 5 realization failure, 141 stdout
closed by its reader before all output was written (as in
`qpoints graph 5 --long --json | head`): the command ends quietly, with
the code a shell reports for a writer killed by SIGPIPE.

main(argv) may be called repeatedly in one process: the argument parser is
built on the first call and never changed after, so each call answers as it
would in a fresh process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shlex
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .adequacy import enumerate_adequate
from .degeneration import (
    build_graph,
    enumerate_nodes,
    graph_json_dict,
    node_records,
    sinks,
    to_dot,
)
from .realize import NotAdequateError, forced_solutions, realize, realize_all
from .scalars import MatrixFormatError, ScalarError, _json_int, _matrix_json, qmatrix_from_json_dict
from .triples import TripleSet
from .variety import _check_size, components, good_triples, ideal_generators

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NOT_ADEQUATE = 4
EXIT_REALIZE_FAILED = 5
EXIT_BROKEN_PIPE = 141


def _sha256(path: Path) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL, which no other step needs

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(argv: list[str], inputs: tuple[Path, ...], output: Path) -> dict:
    return {
        "command": "qpoints " + shlex.join(argv),
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "outputs": [str(output)],
        "determinism": "seed-free; rerunning this command reproduces the outputs byte for byte",
        "versions": {
            "qpoints": __version__,
            "python": platform.python_version(),
        },
    }


def _json_text(value, prefix: str = "") -> str:
    """Exactly json.dumps(value, indent=2), nested under prefix.

    indent= sends json.dumps to its pure-Python encoder, so ints, strings,
    string-keyed objects, lists of ints and lists of int lists (the bulk of
    pts and graph output) are written here, one join per list; any other
    value goes to json.dumps and is re-indented.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = prefix + "  "
    sep = ",\n" + inner
    if kind is list and value:
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(str, value))
        elif kinds == {list} and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
            row_sep = sep + "  "
            head, tail = "[" + row_sep[1:], "\n" + inner + "]"
            body = sep.join([head + row_sep.join(map(str, row)) + tail for row in value])
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + prefix + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        body = sep.join([encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()])
        return "{\n" + inner + body + "\n" + prefix + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + prefix)


def _emit(body: str, args, inputs: tuple[Path, ...] = ()) -> None:
    """Write a command's body to stdout, or to the file args.out together
    with its manifest, args.out + ".manifest.json"."""
    if not args.out:
        sys.stdout.write(body)
        return
    path = Path(args.out)
    manifest = path.with_suffix(path.suffix + ".manifest.json")
    for target, text in ((path, body), (manifest, _json_text(_manifest(args.argv, inputs, path)) + "\n")):
        try:
            target.write_text(text)
        except OSError as exc:
            exc.filename = exc.filename or str(target)  # a failed write names no file
            raise


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def _load_collection(path: str) -> TripleSet:
    data = json.loads(_read_text(path))
    if not isinstance(data, dict) or "n" not in data or "triples" not in data:
        raise MatrixFormatError("collection JSON must have keys n and triples")
    if not isinstance(data["triples"], list):
        raise MatrixFormatError("triples must be a list of index triples")
    triples = []
    for entry in data["triples"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise MatrixFormatError(f"triple must have three indices: {entry!r}")
        triples.append(tuple(sorted(_json_int(v, "triple index") for v in entry)))
    n = _json_int(data["n"], "n")
    if n < 0:
        raise ValueError("dimension index must be >= 0")
    return TripleSet.of(n, triples)


def _fmt_triple(t) -> str:
    return "P(" + ",".join(str(i) for i in t) + ")"


def cmd_pts(args) -> int:
    data = _matrix_json(_read_text(args.matrix))
    # the size bound before the reader expands upper into exponent rows; an
    # n that is not a JSON integer is left for the reader to name
    if type(data.get("n")) is int:
        _check_size(data["n"])
    Q = qmatrix_from_json_dict(data)
    good = good_triples(Q)
    config = components(good)
    gens = ideal_generators(good)
    if args.json:
        out = config.to_json_dict()
        out["good_triples"] = [list(t) for t in good]
        out["ideal_generators"] = [list(t) for t in gens]
        print(_json_text(out))
        return EXIT_OK
    print("good triples:", " ".join(_fmt_triple(t) for t in good) or "(none)")
    if config.is_whole_space():
        print(f"point variety = P^{Q.n}")
    else:
        print("components:", " ".join(_fmt_triple(c) for c in config.components))
    print("type:", "(" + ",".join(str(c) for c in config.type_vector) + ")")
    print(
        "ideal generators:",
        " ".join("u%d*u%d*u%d" % t for t in gens) or "(none)",
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.nodes:
        nodes = enumerate_nodes(args.n)
        lines = [json.dumps(rec, sort_keys=True) for rec in node_records(nodes)]
        summary = f"nodes={len(nodes)}"
    else:
        catalog = enumerate_adequate(args.n)
        lines = [json.dumps(rec, sort_keys=True) for rec in catalog.records()]
        summary = f"total={catalog.total} orbits={len(catalog)}"
    _emit("\n".join(lines) + "\n", args)
    print(summary)
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = build_graph(args.n)
    body = _json_text(graph_json_dict(graph)) + "\n" if args.json else to_dot(graph)
    _emit(body, args)
    print(f"nodes={len(graph.nodes)} arrows={len(graph.arrows)}")
    return EXIT_OK


def cmd_realize(args) -> int:
    if args.cls is not None:
        n, index = args.cls
        try:
            n = int(n)
        except ValueError:
            print(f"error: class dimension N must be an integer, got {n!r}", file=sys.stderr)
            return EXIT_PARSE
        catalog = enumerate_adequate(n)
        if index == "all":
            results = realize_all(n)
            _emit(
                "".join(
                    f"class {i}: {'ok' if r.success else 'FAILED'} ({r.method})\n"
                    for i, r in enumerate(results)
                ),
                args,
            )
            realized = sum(r.success for r in results)
            print(f"realized {realized}/{len(results)}")
            return EXIT_OK if realized == len(results) else EXIT_REALIZE_FAILED
        try:
            k = int(index)
        except ValueError:
            k = -1
        if not 0 <= k < len(catalog):
            print(f"error: class index must be 0..{len(catalog) - 1} or 'all'", file=sys.stderr)
            return EXIT_PARSE
        target = catalog.representatives[k]
    else:
        target = _load_collection(args.collection)
    try:
        result = realize(target)
    except NotAdequateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ADEQUATE
    if not result.success:
        print(f"realization failed: {result.detail}", file=sys.stderr)
        return EXIT_REALIZE_FAILED
    inputs = (Path(args.collection),) if args.collection else ()
    _emit(result.matrix.to_json() + "\n", args, inputs)
    print(
        "verified: achieved collection matches target"
        f" ({len(result.target)} excluded planes)"
    )
    return EXIT_OK


def cmd_sinks(args) -> int:
    found = sinks(args.n)
    print(f"sinks={len(found)}")
    for node in found:
        planes = " ".join(_fmt_triple(t) for t in node.closed_set)
        tv = ",".join(str(c) for c in node.type_vector)
        print(f"  type=({tv}) orbit={node.orbit_size} closed={planes}")
    return EXIT_OK


def cmd_forced(args) -> int:
    good = _load_collection(args.goodset)
    if args.pin is not None:
        pins = []
        for chunk in args.pin.replace(";", " ").split():
            try:
                i, j = map(int, chunk.split(","))
            except ValueError:
                print(f"error: --pin takes integer pairs i,j, got {chunk!r}", file=sys.stderr)
                return EXIT_PARSE
            pins.append((i, j))
    else:
        # lazy, so forced_solutions rejects a huge n before the pins exist
        pins = ((i, good.n) for i in range(good.n))
    family = forced_solutions(good, pins)
    print(f"solution set: {family.describe()}")
    if family.is_finite:
        for k, sol in enumerate(family.solutions()):
            forced = [
                f"q[{i},{j}]={sol[(i, j)]}"
                for (i, j) in sorted(sol)
                if not sol[(i, j)].is_one
            ]
            print(f"solution {k}: " + ("; ".join(forced) if forced else "all q = 1"))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpoints",
        description="Point varieties of quantum polynomial algebras: "
        "exact computation, enumeration, degeneration graphs, realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pts", help="point variety of a matrix JSON file")
    p.add_argument("matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pts)

    p = sub.add_parser("enumerate", help="adequate collections or graph nodes")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--adequate", action="store_true")
    group.add_argument("--nodes", action="store_true")
    p.add_argument("--long", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="degeneration graph")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--long", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("realize", help="realize a collection as a matrix")
    p.add_argument("collection", nargs="?")
    p.add_argument(
        "--class",
        dest="cls",
        nargs=2,
        metavar=("N", "INDEX"),
        help="realize catalog class INDEX of dimension N ('all' for every class)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("sinks", help="maximal degenerations (label-0 nodes)")
    p.add_argument("n", type=int)
    p.add_argument("--long", action="store_true")
    p.set_defaults(func=cmd_sinks)

    p = sub.add_parser("forced", help="solve b = 1 on a good set under pinning")
    p.add_argument("goodset", help="collection JSON of required good triples")
    p.add_argument("--pin", help='pairs to pin to 1, e.g. "0,5 1,5 2,5 3,5 4,5"')
    p.set_defaults(func=cmd_forced)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout at devnull after a failed write, so that the final
    flush at interpreter exit has nowhere to fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # the command line that --out manifests record
    if args.command == "realize" and (args.cls is None) == (not args.collection):
        parser.error("realize needs a collection file or --class N INDEX, not both")
    nodes = args.command in ("graph", "sinks") or (args.command == "enumerate" and args.nodes)
    if nodes and args.n == 5 and not args.long:
        print("error: n = 5 node enumeration requires the long flag (use --long)", file=sys.stderr)
        return EXIT_PARSE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader is gone
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except (json.JSONDecodeError, MatrixFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        if exc.filename is None:  # stdout is the one file a command writes unnamed
            _stdout_to_devnull()
            exc.filename = "stdout"
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except (ScalarError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
