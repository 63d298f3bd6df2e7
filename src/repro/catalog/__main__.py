"""Maintenance CLI for the durable decomposition catalog.

Usage::

    python -m repro.catalog list   my.db [--namespace NS] [--all-namespaces]
    python -m repro.catalog show   my.db HASH_PREFIX [--namespace NS]
    python -m repro.catalog evict  my.db [--namespace NS] [--hash PREFIX] [--k K]
    python -m repro.catalog vacuum my.db

``list`` prints one line per entry; ``show`` prints the provenance of a
single entry, the stored instance in HIF JSON, and (for positive entries)
the decomposition tree; ``evict`` deletes matching rows; ``vacuum``
reclaims their space.  All commands address one namespace (default
``default``) except ``list --all-namespaces``.  A path with no file behind
it exits 1 and creates nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..decomp.decomposition import Decomposition
from ..exceptions import ReproError
from ..hypergraph.io import to_hif
from .store import CatalogRecord, DecompositionCatalog

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.catalog",
        description="Inspect and maintain a durable decomposition catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="the catalog SQLite file")
        p.add_argument(
            "--namespace", default="default", help="namespace to address (default: default)"
        )

    list_parser = sub.add_parser("list", help="list catalog entries")
    common(list_parser)
    list_parser.add_argument(
        "--all-namespaces",
        action="store_true",
        help="list entries of every namespace in the file",
    )
    list_parser.add_argument("--k", type=int, default=None, help="filter by width bound k")

    show_parser = sub.add_parser("show", help="show one entry in full")
    common(show_parser)
    show_parser.add_argument("hash_prefix", help="canonical-hash prefix of the entry")
    show_parser.add_argument("--k", type=int, default=None, help="disambiguate by k")

    evict_parser = sub.add_parser("evict", help="delete matching entries")
    common(evict_parser)
    evict_parser.add_argument("--hash", default="", help="canonical-hash prefix filter")
    evict_parser.add_argument("--k", type=int, default=None, help="width-bound filter")

    vacuum_parser = sub.add_parser("vacuum", help="reclaim space of evicted rows")
    common(vacuum_parser)
    return parser


def _entry_line(record: CatalogRecord) -> str:
    outcome = f"width<={record.k}" if record.success else f"no-hd(k={record.k})"
    return (
        f"{record.namespace:<12} {record.canonical_hash[:12]}  k={record.k}  "
        f"{outcome:<12} {record.kind.kind:<4} {record.algorithm:<10} "
        f"{record.created_at}  v{record.code_version}"
    )


def _cmd_list(catalog: DecompositionCatalog, args: argparse.Namespace) -> int:
    namespaces = (
        catalog.namespaces() if args.all_namespaces else [args.namespace]
    )
    total = 0
    for namespace in namespaces:
        for record in catalog.entries(namespace, k=args.k):
            print(_entry_line(record))
            total += 1
    print(f"{total} entr{'y' if total == 1 else 'ies'}")
    return 0


def _cmd_show(catalog: DecompositionCatalog, args: argparse.Namespace) -> int:
    records = catalog.entries(args.namespace, hash_prefix=args.hash_prefix, k=args.k)
    if not records:
        print(
            f"no entry matching {args.hash_prefix!r} in namespace {args.namespace!r}",
            file=sys.stderr,
        )
        return 1
    if len(records) > 1:
        print(
            f"{len(records)} entries match {args.hash_prefix!r}; "
            "narrow the prefix or pass --k:",
            file=sys.stderr,
        )
        for record in records:
            print(_entry_line(record), file=sys.stderr)
        return 1
    record = records[0]
    print(f"namespace:      {record.namespace}")
    print(f"canonical hash: {record.canonical_hash}")
    print(f"k:              {record.k}")
    print(f"algorithm:      {record.algorithm}")
    print(f"configuration:  {record.configuration}")
    print(f"outcome:        {'decomposition found' if record.success else 'no decomposition'}")
    print(f"kind:           {record.kind.kind}")
    print(f"stored:         {record.created_at} (code version {record.code_version})")
    print(f"wall seconds:   {record.wall_seconds:.6f}")
    print(f"validated:      {'yes' if record.validated else 'no'}")
    print()
    print("instance (HIF):")
    print(json.dumps(to_hif(record.hypergraph), indent=2, sort_keys=True))
    if record.root is not None:
        print()
        print("decomposition:")
        print(Decomposition(record.hypergraph, record.root).describe())
    return 0


def _cmd_evict(catalog: DecompositionCatalog, args: argparse.Namespace) -> int:
    removed = catalog.evict(args.namespace, hash_prefix=args.hash, k=args.k)
    print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_vacuum(catalog: DecompositionCatalog, args: argparse.Namespace) -> int:
    catalog.vacuum()
    print("vacuumed")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "evict": _cmd_evict,
    "vacuum": _cmd_vacuum,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not Path(args.path).is_file():
        print(f"error: no catalog file at {args.path!r}", file=sys.stderr)
        return 1
    try:
        with DecompositionCatalog(args.path, namespace=args.namespace) as catalog:
            if catalog.stats().memory_fallback:
                print(f"cannot open catalog file {args.path!r}", file=sys.stderr)
                return 1
            return _COMMANDS[args.command](catalog, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
