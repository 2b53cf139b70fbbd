"""Command-line front end.

Subcommands: pts, enumerate, graph, realize, sinks, forced.  All commands
are deterministic; identical inputs produce byte-identical outputs (fresh
generator names are sequential).  enumerate, graph and realize write their
body to stdout or, with --out F, to the file F and its manifest
F.manifest.json; their summary line always goes to stdout.  Node
enumeration at N = 5 (enumerate --nodes, graph, sinks) needs --long, a
rule of this module alone: the library functions take n alone, and
enumerate --adequate and realize --class never need it.  Exit codes: 0 ok,
2 parse/usage (as an input file that scalars._json_value, the one JSON
decoder, finds malformed, too deeply nested or holding an integer past the
interpreter's digit limit), --long missing, or a file,
stdout included, that cannot be read or written, 3 input invariant
violation or input beyond a size bound (an input above INPUT_MAX_BYTES =
64 MiB, a file, a pipe or a device; for realize and forced: n above
lattice.CHARS_MAX_N = 50; for pts: n above variety.VARIETY_MAX_N = 200,
checked before the matrix entries are read, or more than
variety.COMPONENTS_LIMIT = 100 000 components), 4 input not adequate, 5
realization failure, 141 stdout closed by its reader before all output was
written (as in `qpoints graph 5 --long --json | head`): the command ends
quietly, with the code a shell reports for a writer killed by SIGPIPE.

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
from .scalars import MatrixFormatError, ScalarError, _json_int, _json_value, qmatrix_from_json_dict
from .triples import _MAX_MASK_BITS, TripleSet, _shown, triple_rank
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
    """Exactly json.dumps(value, indent=2), nested under prefix, where a
    TripleSet stands for the list of its triples.

    indent= sends json.dumps to its pure-Python encoder, so ints, strings,
    string-keyed objects, lists of ints and lists of int lists are written
    here, one join per list.  A TripleSet (the bulk of pts and graph output)
    is written straight from its mask, one % format per triple, and never
    builds per-triple lists.  Any other value goes to json.dumps and is
    re-indented.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = prefix + "  "
    sep = ",\n" + inner
    if kind is TripleSet:
        if not value.mask:
            return "[]"
        row = "\n" + inner + "  "
        triple = "".join(("[", row, "%d,", row, "%d,", row, "%d\n", inner, "]"))
        return "".join(("[\n", inner, sep.join(map(triple.__mod__, value)), "\n", prefix, "]"))
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
        return "".join(("[\n", inner, body, "\n", prefix, "]"))
    if kind is dict and value and set(map(type, value)) == {str}:
        body = sep.join([encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()])
        return "".join(("{\n", inner, body, "\n", prefix, "}"))
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


#: Most bytes that pts, realize FILE and forced read from one input, a
#: file, a pipe or a device alike; checked on the bytes read.  The largest
#: inputs these commands accept are about 2.1 MB (a generic n = 200
#: matrix, object form, indent=2) and 0.86 MB (the full n = 50
#: collection).
INPUT_MAX_BYTES = 64 * 2**20


def _read_text(path: str) -> str:
    """The input file at path, decoded as UTF-8; read in 64 KiB chunks and
    refused once more than INPUT_MAX_BYTES bytes are held."""
    chunks, held = [], 0
    with open(path, "rb") as file:
        while chunk := file.read(1 << 16):
            held += len(chunk)
            if held > INPUT_MAX_BYTES:
                raise ValueError(f"{path}: more than the input bound of {INPUT_MAX_BYTES} bytes")
            chunks.append(chunk)
    try:
        return b"".join(chunks).decode()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def _load_collection(path: str) -> TripleSet:
    """The collection file at path, its mask built in one pass over the
    triples.  A malformed triple (exit 2) is named before a bad n, and a bad
    n before the first triple out of range (exit 3)."""
    data = _json_value(_read_text(path))
    if not isinstance(data, dict) or "n" not in data or "triples" not in data:
        raise MatrixFormatError("collection JSON must have keys n and triples")
    if not isinstance(data["triples"], list):
        raise MatrixFormatError("triples must be a list of index triples")
    n = data["n"]
    ranked = type(n) is int and n >= 0  # else n is refused after the loop
    mask, stray = 0, None
    for entry in data["triples"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise MatrixFormatError(f"triple must have three indices: {_shown(entry)}")
        i, j, k = entry
        if not type(i) is type(j) is type(k) is int:
            for v in entry:
                _json_int(v, "triple index")
        if ranked and stray is None:
            i, j, k = sorted(entry)
            if 0 <= i < j < k <= n and (rank := triple_rank((i, j, k), n)) < _MAX_MASK_BITS:
                mask |= 1 << rank
            else:
                stray = (i, j, k)
    n = _json_int(n, "n")
    if n < 0:
        raise ValueError("dimension index must be >= 0")
    if stray is not None:
        TripleSet.of(n, [stray])  # raises the range or mask-limit error
    return TripleSet(n, mask)


def _fmt_triple(t) -> str:
    return "P(" + ",".join(str(i) for i in t) + ")"


def cmd_pts(args) -> int:
    data = _json_value(_read_text(args.matrix))
    # the size bound before the reader expands upper into exponent rows; the
    # reader names a file that is not an object or an n that is no JSON integer
    if isinstance(data, dict) and type(data.get("n")) is int:
        _check_size(data["n"])
    Q = qmatrix_from_json_dict(data)
    good = good_triples(Q)
    config = components(good)
    if args.json:
        out = config.to_json_dict()
        out["good_triples"] = good
        out["ideal_generators"] = good.complement()  # ideal_generators(good), as a set
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
        " ".join("u%d*u%d*u%d" % t for t in ideal_generators(good)) or "(none)",
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.nodes:
        nodes = enumerate_nodes(args.n)
        lines = [json.dumps(rec, sort_keys=True, default=list) for rec in node_records(nodes)]
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
    body = "".join((_json_text(graph_json_dict(graph)), "\n")) if args.json else to_dot(graph)
    _emit(body, args)
    print(f"nodes={len(graph.nodes)} arrows={len(graph.arrows)}")
    return EXIT_OK


def cmd_realize(args) -> int:
    if args.cls is not None:
        n, index = args.cls
        try:
            n = int(n)
        except ValueError:
            print(f"error: class dimension N must be an integer, got {_shown(n)}", file=sys.stderr)
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
                print(f"error: --pin takes integer pairs i,j, got {_shown(chunk)}", file=sys.stderr)
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


def _int_arg(text: str) -> int:
    """argparse's type=int, its error echoing the value cut short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


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
    p.add_argument("n", type=_int_arg)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--adequate", action="store_true")
    group.add_argument("--nodes", action="store_true")
    p.add_argument("--long", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="degeneration graph")
    p.add_argument("n", type=_int_arg)
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
    p.add_argument("n", type=_int_arg)
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
    except MatrixFormatError as exc:
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
