"""Command-line front end.

Exit codes: 0 success, 1 user error, 2 internal cross-check mismatch.
The last one is deliberately distinct so CI treats soundness regressions
differently from bad invocations.  Output is deterministic: identical
invocations produce byte-identical stdout.

Each call imports only what its subcommand runs: at module level this
file loads just the error types and the size guards, the parser holds
only the subcommand that argv names, every handler imports its own
library code, and ``json`` is loaded only to read or write JSON.
"""

from __future__ import annotations

import argparse
import sys

from . import guards
from .errors import CrossCheckMismatch, DimMismatch, Error

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Sequence

    from .cayley import CayleyGraph
    from .groups import FiniteGroup
    from .spaces import FiniteMap, ReflexiveDigraph


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here
    # reserves 2 for cross-check failures, so route through exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _print(text: str) -> None:
    sys.stdout.write(text)


def _print_json(data) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=2)`` and a newline.

    One pass over dicts with str keys, lists, tuples, str, int, bool and
    None; any other type raises TypeError.  The stdlib encoder runs in
    pure Python whenever ``indent`` is set, one generator step per token,
    and rows of plain ints, the bulk of every payload, are joined here
    in one call each.
    """
    from json.encoder import encode_basestring_ascii as quote

    def render(obj, nl: str) -> str:
        # nl is a newline plus the indent of the line obj starts on
        if isinstance(obj, str):
            return quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        inner = nl + "  "
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            types = set(map(type, obj))  # bool is not int here
            if types == {int}:
                items = map(int.__repr__, obj)
            elif types == {str}:
                items = map(quote, obj)
            else:
                items = [render(x, inner) for x in obj]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            # quote raises TypeError on a key that is not a str
            items = [quote(k) + ": " + render(obj[k], inner) for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    _print(render(data, "\n"))
    _print("\n")


# ---------------------------------------------------------------- inputs


def _load_group(spec: str) -> tuple[FiniteGroup, tuple[int, ...] | None]:
    """Group plus its canonical generators; file groups have none."""
    from .groups import group_from_json, group_from_spec

    if spec.startswith("file:"):
        import json

        with open(spec[len("file:") :], "r", encoding="utf-8") as fh:
            return group_from_json(json.load(fh)), None
    return group_from_spec(spec)


def _resolve_elements(tokens: str, group: FiniteGroup) -> tuple[int, ...]:
    out = []
    for tok in tokens.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if group.names is not None and tok in group.names:
            out.append(group.names.index(tok))
        elif tok.lstrip("-").isdigit():
            idx = int(tok)
            if not 0 <= idx < group.order:
                raise ValueError(f"element index {idx} out of range")
            out.append(idx)
        else:
            raise ValueError(f"unknown element {tok!r}")
    return tuple(out)


def _z2_dim(group: FiniteGroup) -> int | None:
    """Dimension m >= 1 when the group is literally the z2^m table, where
    a*b = a XOR b on the indices; else None.

    Only the rows of the unit vectors 2^k are compared: row a is left
    multiplication by a, row a*b is row a after row b by associativity,
    and every index is a product of unit vectors, so XOR rows for them
    make every row XOR.
    """
    n = group.order
    m = n.bit_length() - 1
    if m < 1 or 2**m != n:
        return None
    for k in range(m):
        if group.table[2**k] != tuple(map((2**k).__xor__, range(n))):
            return None
    return m


def _bits_of(token: str) -> tuple[int, ...] | None:
    inner = token.strip()
    if inner.startswith("(") and inner.endswith(")"):
        try:
            return tuple(int(p) for p in inner[1:-1].split(","))
        except ValueError:
            raise ValueError(f"bad point tuple {token!r}")
    return None


def _resolve_point(
    token: str, order: int, dim: int | None, names: Sequence[str] | None
) -> int:
    """The index of a point of a carrier with ``order`` elements, given
    as an element name, an index, or, when the carrier is the
    ``dim``-cube (``dim`` is ``_z2_dim`` of a group), a bit tuple or
    bit string."""
    from .gf2 import point_index

    bits = _bits_of(token)
    if bits is not None:
        if dim is None or len(bits) != dim:
            raise ValueError(f"point tuple {token!r} does not fit the domain")
        return point_index(bits)
    tok = token.strip()
    if names is not None and tok in names:
        return names.index(tok)
    if dim is not None and len(tok) == dim and set(tok) <= {"0", "1"}:
        return point_index(tuple(int(c) for c in tok))
    if tok.lstrip("-").isdigit():
        idx = int(tok)
        if not 0 <= idx < order:
            raise ValueError(f"point index {idx} out of range")
        return idx
    raise ValueError(f"cannot parse point {token!r}")


def _build_cayley(spec: str, gens_flag: str | None) -> CayleyGraph:
    from .cayley import cayley_graph

    group, canonical = _load_group(spec)
    if gens_flag is not None:
        gens = _resolve_elements(gens_flag, group)
    elif canonical is not None:
        gens = canonical
    else:
        raise ValueError(f"group {spec!r} has no default generators; pass --gens")
    return cayley_graph(group, gens)


def _load_function(
    fn: str | None,
    poly: str | None,
    dom: FiniteGroup,
    cod: FiniteGroup,
    dims: tuple[int | None, int | None],
) -> FiniteMap:
    """``dims`` is ``_z2_dim`` of the two groups."""
    from .spaces import FiniteMap, map_from_json

    if poly is not None:
        fn = "poly:" + poly
    if fn is None:
        raise ValueError("diff needs a function source: --fn or --f")
    if fn.startswith("file:"):
        import json

        with open(fn[len("file:") :], "r", encoding="utf-8") as fh:
            f = map_from_json(json.load(fh))
        if f.dom_size != dom.order or f.cod_size != cod.order:
            raise ValueError(
                f"function table is {f.dom_size}->{f.cod_size}, "
                f"groups are {dom.order}->{cod.order}"
            )
        return f
    if fn.startswith("poly:"):
        from .anf import tabulate
        from .gf2 import point_index

        # the order-1 group is the 0-cube here, which _z2_dim leaves out
        m, n = (0 if g.order == 1 else d for g, d in zip((dom, cod), dims))
        if m is None or n is None:
            raise ValueError("polynomial sources need z2^m domain and codomain")
        _, table = tabulate(fn[len("poly:") :], m)
        if len(table[0]) != n:
            raise ValueError(f"polynomial has {len(table[0])} components, codomain needs {n}")
        return FiniteMap(2**m, 2**n, tuple(map(point_index, table)))
    if fn.startswith("builtin:"):
        name = fn[len("builtin:") :]
        if name == "identity":
            if dom.order != cod.order:
                raise ValueError("builtin:identity needs equal orders")
            return FiniteMap.identity(dom.order)
        if name == "zero":
            return FiniteMap.constant(dom.order, cod.order, cod.identity)
        if name == "square":
            if dom.order != cod.order:
                raise ValueError("builtin:square needs equal orders")
            return FiniteMap(
                dom.order, dom.order, tuple(dom.mul(g, g) for g in range(dom.order))
            )
        raise ValueError(f"unknown builtin {name!r}")
    raise ValueError(f"function source {fn!r} needs a file:/poly:/builtin: prefix")


# ---------------------------------------------------------------- output


def emit_dot(digraph: ReflexiveDigraph, names: Sequence[str] | None = None) -> str:
    """DOT text of the reflexive reduction.

    Loops are omitted and mutually adjacent pairs collapse to a single
    undirected line, matching the usual way these spaces are drawn.
    """
    lines = ["digraph G {"]
    for v in range(digraph.size):
        label = str(names[v]) if names is not None else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for u in range(digraph.size):
        for v in sorted(digraph.nbhd[u]):
            if v == u:
                continue
            if u in digraph.nbhd[v]:
                if u < v:
                    lines.append(f"  {u} -> {v} [dir=none];")
            else:
                lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _map_payload(f: FiniteMap, m: int | None, n: int | None) -> dict:
    data: dict = {"values": list(f.values)}
    if m is not None and n is not None:
        from .anf import matrix_anf
        from .gf2 import GF2Matrix

        # a homomorphism between z2 powers is a matrix
        mt = GF2Matrix.from_finite_map(f, m, n)
        data["rows"] = [list(r) for r in mt.bits]
        data["anf"] = matrix_anf(mt)
    return data


# ---------------------------------------------------------------- handlers


def _cmd_group(ns) -> int:
    from .groups import enumerate_homomorphisms, group_to_json, validate_generating_set

    group, _ = _load_group(ns.group)
    data = group_to_json(group)
    if ns.gens is not None:
        elements = _resolve_elements(ns.gens, group)
        gset = validate_generating_set(group, elements)
        data["generators"] = sorted(gset.elements)
    if ns.homs_to is not None:
        target, _ = _load_group(ns.homs_to)
        homs = enumerate_homomorphisms(group, target)
        data["homs"] = [list(h.values) for h in homs]
        data["hom_count"] = len(homs)
    _print_json(data)
    return 0


def _cmd_cayley(ns) -> int:
    from .cayley import left_mult_automorphism_check
    from .spaces import digraph_to_json

    c = _build_cayley(ns.group, ns.gens)
    if ns.check:
        result = left_mult_automorphism_check(c)
        if not result.ok:
            raise CrossCheckMismatch(result.witness)
    if ns.format == "dot":
        _print(emit_dot(c.digraph, c.group.names))
    else:
        data = digraph_to_json(c.digraph)
        data["gens"] = sorted(c.gens.elements)
        if c.group.names is not None:
            data["names"] = list(c.group.names)
        if ns.check:
            data["left_multiplication_ok"] = True
        _print_json(data)
    return 0


def _cmd_space(ns) -> int:
    from .spaces import digraph_from_json, digraph_to_json, pentacle, space_properties

    names = None
    if ns.pentacle:
        digraph = pentacle()
    elif ns.hypercube is not None:
        from .cayley import hypercube

        digraph = hypercube(ns.hypercube).digraph
        names = [
            format(v, "0%db" % ns.hypercube) if ns.hypercube else "()"
            for v in range(digraph.size)
        ]
    else:
        import json

        with open(ns.file, "r", encoding="utf-8") as fh:
            digraph = digraph_from_json(json.load(fh))
    if ns.format == "dot":
        if ns.props:
            raise ValueError("--props output is textual; drop the dot format")
        _print(emit_dot(digraph, names))
        return 0
    if ns.props:
        props = space_properties(digraph)
        flags = {
            "T0": props.is_T0,
            "T1": props.is_T1,
            "discrete": props.is_discrete,
            "topological": props.is_topological,
        }
        if ns.format == "json":
            data = digraph_to_json(digraph)
            data["props"] = flags
            _print_json(data)
        else:
            for key, value in flags.items():
                _print(f"{key}={str(value).lower()}\n")
        return 0
    _print_json(digraph_to_json(digraph))
    return 0


def _cmd_diffspace(ns) -> int:
    from .cayley import diff_space
    from .spaces import is_isolated

    dom = _build_cayley(ns.dom, ns.dom_gens)
    cod = _build_cayley(ns.cod, ns.cod_gens)
    space = diff_space(dom, cod, cross_check=ns.oracle)
    m, n = _z2_dim(dom.group), _z2_dim(cod.group)
    data = {
        "count": len(space.maps),
        "maps": [_map_payload(f, m, n) for f in space.maps],
        "nbhd": [sorted(nv) for nv in space.nbhd],
        "isolated": [is_isolated(space, i) for i in range(len(space.maps))],
    }
    _print_json(data)
    return 0


def _cmd_diff(ns) -> int:
    from .cayley import diff_space
    from .differential import (
        DifferentialQuery,
        differential_oracle,
        differentials_at,
        differentials_by_theorem,
    )

    dom = _build_cayley(ns.dom, ns.dom_gens)
    cod = _build_cayley(ns.cod, ns.cod_gens)
    m, n = _z2_dim(dom.group), _z2_dim(cod.group)
    f = _load_function(ns.fn, ns.f, dom.group, cod.group, (m, n))
    a = _resolve_point(ns.at, dom.group.order, m, dom.group.names)
    space = diff_space(dom, cod, cross_check=ns.oracle)
    query = DifferentialQuery(space, f, a)
    found = differentials_at(query)
    checked = ["criterion"]
    if ns.oracle:
        routes = {
            "theorem": differentials_by_theorem(query),
            "oracle": differential_oracle(query),
            "oracle-literal": differential_oracle(query, literal=True),
        }
        for label, got in routes.items():
            if got != found:
                raise CrossCheckMismatch(
                    f"criterion found {list(found)}, {label} found {list(got)} "
                    f"at point {a}"
                )
            checked.append(label)
    data = {
        "point": a,
        "count": len(found),
        "differentials": [_map_payload(space.maps[i], m, n) for i in found],
        "checked": checked,
    }
    _print_json(data)
    return 0


def _cmd_bool_diff(ns) -> int:
    from .anf import _VARS as names, matrix_anf
    from .boolean import BoolFunction, boolean_differentials_at, index_point

    if ns.m > len(names):
        raise DimMismatch(
            f"--m {ns.m}: differentials print in polynomial notation, which names "
            f"only the {len(names)} variables {names[0]}..{names[-1]}"
        )
    f = BoolFunction.from_source(ns.f, m=ns.m)
    if ns.n is not None and f.n != ns.n:
        raise ValueError(f"polynomial has {f.n} components, --n says {ns.n}")
    b = _resolve_point(ns.at, 2**ns.m, ns.m, None)
    diffs = boolean_differentials_at(f, b, cross_check=ns.oracle)
    if ns.json:
        _print_json(
            {
                "m": f.m,
                "n": f.n,
                "point": list(index_point(b, f.m)),
                "count": len(diffs),
                "differentials": [
                    {"rows": [list(r) for r in mt.bits], "anf": matrix_anf(mt)}
                    for mt in diffs
                ],
            }
        )
    else:
        for mt in diffs:
            _print(matrix_anf(mt) + "\n")
    return 0


def _cmd_bool_census(ns) -> int:
    from .boolean import BoolFunction, scalar_differentiability_census

    f = BoolFunction.from_source(ns.f, m=ns.m)
    report = scalar_differentiability_census(f)
    if ns.json:
        _print_json(
            {
                "m": report.m,
                "differentiable": list(report.differentiable),
                "expected": list(report.expected),
                "matches": report.matches,
            }
        )
    else:
        for idx, flag in enumerate(report.differentiable):
            word = "differentiable" if flag else "not-differentiable"
            _print(f"{format(idx, '0%db' % report.m)} {word}\n")
        _print(f"prediction holds: {str(report.matches).lower()}\n")
    if not report.matches:
        raise CrossCheckMismatch("census pattern deviates from the predicted rule")
    return 0


def _cmd_examples(ns) -> int:
    from . import scenarios

    results = scenarios.run_suite(ns.suite)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        failed += 0 if r.ok else 1
        _print(f"{mark}  {r.name.ljust(width)}  {r.detail}\n")
    total = len(results)
    _print(f"{total} scenarios: {total - failed} passed, {failed} failed\n")
    return 2 if failed else 0


# ---------------------------------------------------------------- parser


_COMMANDS = ("group", "cayley", "space", "diffspace", "diff", "bool", "examples")


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser for ``argv``.

    When argv[0] names a subcommand, only that subcommand's parser is
    added: building all of them costs a call more than parsing does.
    An empty argv, top-level help or an unknown command gets them all,
    so help and the invalid-choice error list every subcommand.
    """
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _Parser(
        prog="cayleydiff",
        description="Differential calculus on finite convergence spaces.",
        epilog=(
            "Size guards are overridable through CAYLEYDIFF_MAX_* environment "
            "variables (e.g. CAYLEYDIFF_MAX_GROUP_ORDER)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if only in (None, "group"):
        p = sub.add_parser("group", help="build and inspect a finite group")
        p.add_argument("--group", required=True, help="cyclic:N, s:N, z2^N or file:path.json")
        p.add_argument("--gens", help="comma list of elements to validate as generators")
        p.add_argument("--homs-to", help="enumerate homomorphisms into this group")
        p.set_defaults(handler=_cmd_group)

    if only in (None, "cayley"):
        p = sub.add_parser("cayley", help="Cayley graph of a group with generators")
        p.add_argument("--group", required=True)
        p.add_argument("--gens", help="generators (builtin groups have a canonical default)")
        p.add_argument("--check", action="store_true", help="self-test left multiplication")
        p.add_argument("format", nargs="?", choices=("dot", "json"), default="json")
        p.set_defaults(handler=_cmd_cayley)

    if only in (None, "space"):
        p = sub.add_parser("space", help="inspect a reflexive digraph")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--pentacle", action="store_true")
        src.add_argument("--hypercube", type=int, metavar="M")
        src.add_argument("--file", help="digraph JSON path")
        p.add_argument("--props", action="store_true", help="print separation properties")
        p.add_argument("format", nargs="?", choices=("dot", "json"), default=None)
        p.set_defaults(handler=_cmd_space)

    if only in (None, "diffspace"):
        p = sub.add_parser("diffspace", help="space of continuous homomorphisms")
        p.add_argument("--dom", required=True)
        p.add_argument("--cod", required=True)
        p.add_argument("--dom-gens")
        p.add_argument("--cod-gens")
        p.add_argument("--oracle", action="store_true", help="cross-check against definitions")
        p.set_defaults(handler=_cmd_diffspace)

    if only in (None, "diff"):
        p = sub.add_parser("diff", help="differentials of a function between Cayley graphs")
        p.add_argument("--dom", required=True)
        p.add_argument("--cod", required=True)
        p.add_argument("--dom-gens")
        p.add_argument("--cod-gens")
        fn = p.add_mutually_exclusive_group(required=True)
        fn.add_argument("--fn", help="file:path.json, poly:EXPR or builtin:NAME")
        fn.add_argument("--f", help="shorthand for poly:EXPR")
        p.add_argument("--at", required=True, help="point: index, name, bits or (b1,...,bm)")
        p.add_argument("--oracle", action="store_true", help="cross-check all routes")
        p.set_defaults(handler=_cmd_diff)

    if only in (None, "bool"):
        p = sub.add_parser("bool", help="Boolean calculus on hypercubes")
        bsub = p.add_subparsers(dest="bool_command", required=True)
        b = bsub.add_parser("diff", help="differentials of a polynomial map")
        b.add_argument("--m", type=int, required=True, help="domain dimension")
        b.add_argument("--n", type=int, help="codomain dimension (checked if given)")
        b.add_argument("--f", required=True, help="polynomial source, e.g. (p, pq, q)")
        b.add_argument("--at", required=True)
        b.add_argument("--oracle", action="store_true")
        b.add_argument("--json", action="store_true")
        b.set_defaults(handler=_cmd_bool_diff)
        b = bsub.add_parser("census", help="differentiability pattern of a scalar map")
        b.add_argument("--m", type=int, required=True)
        b.add_argument("--f", required=True)
        b.add_argument("--json", action="store_true")
        b.set_defaults(handler=_cmd_bool_census)

    if only in (None, "examples"):
        p = sub.add_parser("examples", help="run a canned scenario suite")
        # no choices list: that would import the scenarios; run_suite
        # rejects an unknown name with exit 1
        p.add_argument("--suite", default="paper", help="scenario suite (paper)")
        p.set_defaults(handler=_cmd_examples)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        guards.check_overrides()
        return ns.handler(ns)
    except CrossCheckMismatch as exc:
        sys.stderr.write(f"error: CrossCheckMismatch: {exc}\n")
        return 2
    except Error as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
