"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``chase``      materialize a chase prefix of a theory over an instance
``rewrite``    compute the UCQ rewriting of a query (Theorem 1)
``answer``     certain answers, by rewriting with chase fallback
``classify``   syntactic class membership report (Section 1's catalogue)
``termination`` Core-Termination probe (Definitions 18-24)
``figure1``    render the doubling triangle of Figure 1
``bench-guard`` run the guard benchmarks and compare against a baseline
``serve``      run the OMQA HTTP service (:mod:`repro.service`)
``loadgen``    drive concurrent mixed traffic against the service

Theories and instances are read from files (or inline with ``-e``) in the
syntax of :mod:`repro.logic.parser`.  Every command takes ``--json`` for a
machine-readable document on stdout; the engine-backed commands
(``chase``/``rewrite``/``answer``) additionally take ``--stats`` to print
telemetry (per-round counters, search effort, phase timings) in text mode.

``chase`` and ``answer`` take ``--backend`` with any name from
:data:`repro.storage.BACKEND_NAMES`, resolved through the same
:func:`repro.storage.resolve_backend` registry as the library API:
``columnar`` runs the hash-join kernel over interned term ids, and
``sqlite --db PATH`` runs against the persistent fact store
(:mod:`repro.storage`) — the chase materializes into the database
(``--resume`` continues a budget-stopped run from disk) and ``answer``
evaluates the compiled UCQ rewriting inside SQLite's join engine.

Interruption (see ``docs/robustness.md``): ``chase`` and ``answer``
install a cooperative SIGINT handler — the first Ctrl-C cancels at the
next round boundary (leaving resumable state; exit code 130), a second
Ctrl-C aborts immediately.  ``--deadline SECONDS`` bounds wall-clock the
same way, through :attr:`repro.chase.ChaseBudget.deadline_s`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from pathlib import Path

from .chase import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    ChaseCancelled,
    chase,
    core_termination,
)
from .chase.engine import DEFAULT_CHASE_BACKEND
from .classes import classify
from .logic import parse_instance, parse_query, parse_theory
from .rewriting import OMQASession, RewritingBudget, rewrite
from .rewriting.session import BACKEND_STRATEGIES
from .storage.base import BACKEND_NAMES, resolve_backend


def _read(value: str, inline: bool) -> str:
    if inline:
        return value
    return Path(value).read_text(encoding="utf8")


def _add_common(parser: argparse.ArgumentParser, stats: bool = False) -> None:
    parser.add_argument(
        "-e",
        "--inline",
        action="store_true",
        help="treat THEORY/INSTANCE/QUERY arguments as literal text, not paths",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON document (including telemetry) instead of text",
    )
    if stats:
        parser.add_argument(
            "--stats",
            action="store_true",
            help="print engine telemetry (counters, per-round records, timings)",
        )


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


class _SigintCancel:
    """Cooperative Ctrl-C for long engine runs.

    The first SIGINT fires the :class:`~repro.chase.CancellationToken`
    (the engine stops at its next check, abandoning only the unfinished
    round — state stays resumable) and tells the user so; a second
    SIGINT restores Python's default handler behaviour and aborts hard.
    Outside the main thread ``signal.signal`` is unavailable; the scope
    then degrades to a plain token nobody fires.
    """

    def __init__(self) -> None:
        self.token = CancellationToken()
        self._previous = None
        self._installed = False

    def _handle(self, signum, frame) -> None:
        if self.token.cancelled:  # second Ctrl-C: abort now
            signal.signal(signal.SIGINT, signal.default_int_handler)
            raise KeyboardInterrupt
        self.token.cancel()
        print(
            "interrupted: stopping at the next safe point; state stays "
            "resumable (Ctrl-C again to abort hard)",
            file=sys.stderr,
        )

    def __enter__(self) -> CancellationToken:
        try:
            self._previous = signal.signal(signal.SIGINT, self._handle)
            self._installed = True
        except ValueError:  # not the main thread
            pass
        return self.token

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)


def _cancelled_exit(args: argparse.Namespace) -> int:
    """Report a SIGINT-cancelled run: resume hint, then POSIX 128+2."""
    if getattr(args, "db", None):
        print(
            f"cancelled; rerun with --resume --db {args.db} to continue "
            "from the last complete round",
            file=sys.stderr,
        )
    else:
        print("cancelled", file=sys.stderr)
    return 130


def _print_stats(stats: dict) -> None:
    """Human-readable telemetry: counters, phases, then per-round lines."""
    counters = " ".join(f"{name}={value}" for name, value in stats["counters"].items())
    print(f"# stats: {counters}")
    for name, seconds in stats["phases"].items():
        print(f"# phase {name}: {seconds:.6f}s")
    for entry in stats["rounds"]:
        cells = " ".join(f"{key}={value}" for key, value in entry.items())
        print(f"# round {cells}")


def _cmd_chase_sqlite(
    args: argparse.Namespace, theory, budget: ChaseBudget, cancel=None
) -> int:
    """``chase --backend sqlite``: materialize into (or resume from) a db.

    Every theory runs inside SQLite through the store chase; its own
    guards refuse a db chased under another theory, or holding facts
    but no chase state.
    """
    import sqlite3

    from .storage import (
        SQLiteStore,
        StoreChaseError,
        chase_into_store,
        resume_store_chase,
    )

    path = args.db if args.db else ":memory:"
    try:
        store_handle = SQLiteStore(path)
    except sqlite3.DatabaseError as error:
        print(
            f"error: {path!r} is not a readable SQLite database: {error}",
            file=sys.stderr,
        )
        return 2
    with store_handle as store:
        try:
            if args.resume:
                result = resume_store_chase(
                    store, theory=theory, budget=budget, cancel=cancel
                )
            else:
                result = chase_into_store(
                    theory,
                    parse_instance(_read(args.instance, args.inline)),
                    store,
                    budget=budget,
                    cancel=cancel,
                )
        except StoreChaseError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        digest = store.digest()
        atoms = sorted(repr(item) for item in store)
    stats = result.stats.as_dict()
    if args.json:
        _emit_json(
            {
                "command": "chase",
                "backend": "sqlite",
                "db": path,
                "atom_count": result.atom_count,
                "rounds_run": result.rounds_run,
                "terminated": result.terminated,
                "digest": digest,
                "atoms": atoms,
                "stats": stats,
            }
        )
        return 0
    status = (
        "fixpoint" if result.terminated else f"truncated at {result.rounds_run} rounds"
    )
    print(f"# {result.atom_count} atoms ({status}) in sqlite db, digest {digest}")
    if args.stats:
        _print_stats(stats)
    for item in atoms:
        print(item)
    return 0


def _cmd_chase(args: argparse.Namespace) -> int:
    if args.instance is None and not getattr(args, "resume", False):
        print("error: INSTANCE is required unless --resume", file=sys.stderr)
        return 2
    if getattr(args, "resume", False) and args.backend != "sqlite":
        print("error: --resume requires --backend sqlite", file=sys.stderr)
        return 2
    if getattr(args, "resume", False) and not args.db:
        print(
            "error: --resume requires --db (a fresh in-memory store holds "
            "no resumable state)",
            file=sys.stderr,
        )
        return 2
    try:
        resolved = resolve_backend(args.backend, args.db)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    theory = parse_theory(_read(args.theory, args.inline), name="cli")
    budget = ChaseBudget(
        max_rounds=args.rounds,
        max_atoms=args.max_atoms,
        deadline_s=args.deadline,
    )
    if resolved.name == "sqlite":
        with _SigintCancel() as token:
            code = _cmd_chase_sqlite(args, theory, budget, cancel=token)
        if token.cancelled and code == 0:
            return _cancelled_exit(args)
        return code
    instance = parse_instance(_read(args.instance, args.inline))
    with _SigintCancel() as token:
        result = chase(
            theory,
            instance,
            budget=budget,
            backend=resolved.name,
            cancel=token,
        )
    stats = result.stats.as_dict()
    if args.json:
        _emit_json(
            {
                "command": "chase",
                "backend": resolved.name,
                "atom_count": len(result.instance),
                "rounds_run": result.rounds_run,
                "terminated": result.terminated,
                "atoms": sorted(repr(item) for item in result.instance),
                "stats": stats,
            }
        )
        return _cancelled_exit(args) if token.cancelled else 0
    status = "fixpoint" if result.terminated else f"truncated at {result.rounds_run} rounds"
    print(f"# {len(result.instance)} atoms ({status})")
    if args.stats:
        _print_stats(stats)
    for item in sorted(result.instance, key=repr):
        print(item)
    return _cancelled_exit(args) if token.cancelled else 0


def _cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: maintain a chased fixpoint under base changes.

    Memory/columnar: chase INSTANCE to a fixpoint, then apply
    ``--add``/``--retract`` through
    :func:`repro.incremental.incremental_update` (``--verify``
    cross-checks the maintained digest against a from-scratch chase).
    SQLite: maintain the store-chase fixpoint persisted at ``--db`` in
    place via :func:`repro.storage.update_store_chase`.
    """
    from .incremental import incremental_update
    from .storage.base import instance_digest

    try:
        resolved = resolve_backend(args.backend, args.db)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.add and not args.retract:
        print("error: nothing to do (pass --add and/or --retract)", file=sys.stderr)
        return 2
    theory = parse_theory(_read(args.theory, args.inline), name="cli")
    added = (
        parse_instance(_read(args.add, args.inline)).atoms()
        if args.add
        else frozenset()
    )
    retracted = (
        parse_instance(_read(args.retract, args.inline)).atoms()
        if args.retract
        else frozenset()
    )
    budget = ChaseBudget(max_rounds=args.rounds, max_atoms=args.max_atoms)

    if resolved.name == "sqlite":
        if not args.db:
            print(
                "error: --backend sqlite needs --db (a fresh in-memory store "
                "holds no fixpoint to maintain)",
                file=sys.stderr,
            )
            return 2
        from .storage import SQLiteStore, StoreChaseError, update_store_chase

        with _SigintCancel() as token:
            with SQLiteStore(args.db) as store:
                try:
                    result = update_store_chase(
                        store,
                        theory,
                        add=added,
                        retract=retracted,
                        budget=budget,
                        cancel=token,
                    )
                except (StoreChaseError, ValueError) as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 2
                digest = store.digest()
                atom_count = result.atom_count
                terminated = result.terminated
                stats = result.stats.as_dict()
        if token.cancelled:
            return _cancelled_exit(args)
        if args.json:
            _emit_json(
                {
                    "command": "update",
                    "backend": "sqlite",
                    "db": args.db,
                    "atom_count": atom_count,
                    "terminated": terminated,
                    "digest": digest,
                    "stats": stats,
                }
            )
            return 0 if terminated else 1
        status = "fixpoint" if terminated else "truncated"
        print(f"# {atom_count} atoms ({status}) in sqlite db, digest {digest}")
        if args.stats:
            _print_stats(stats)
        return 0 if terminated else 1

    if args.instance is None:
        print(
            "error: INSTANCE is required for --backend memory/columnar",
            file=sys.stderr,
        )
        return 2
    instance = parse_instance(_read(args.instance, args.inline))
    with _SigintCancel() as token:
        full = chase(
            theory, instance, budget=budget, backend=resolved.name, cancel=token
        )
        if not full.terminated:
            print(
                "error: the chase did not reach a fixpoint within the budget; "
                "nothing to maintain (raise --rounds/--max-atoms)",
                file=sys.stderr,
            )
            return 2
        try:
            outcome = incremental_update(
                full,
                add=added,
                retract=retracted,
                budget=budget,
                backend=resolved.name,
                cancel=token,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if token.cancelled:
        return _cancelled_exit(args)
    result = outcome.result
    digest = instance_digest(result.instance)
    verified = None
    if args.verify:
        scratch = chase(
            theory, result.base, budget=budget, backend=resolved.name
        )
        verified = (
            scratch.terminated
            and instance_digest(scratch.instance) == digest
        )
    stats = result.stats.as_dict()
    if args.json:
        _emit_json(
            {
                "command": "update",
                "backend": resolved.name,
                "atom_count": len(result.instance),
                "added": len(outcome.added),
                "retracted": len(outcome.retracted),
                "overdeleted": outcome.overdeleted,
                "rederived": outcome.rederived,
                "rounds_run": outcome.rounds_run,
                "terminated": result.terminated,
                "digest": digest,
                "verified": verified,
                "stats": stats,
            }
        )
        return 1 if verified is False else (0 if result.terminated else 1)
    status = "fixpoint" if result.terminated else "truncated"
    print(
        f"# {len(result.instance)} atoms ({status}), digest {digest}; "
        f"+{len(outcome.added)}/-{len(outcome.retracted)} base facts, "
        f"{outcome.overdeleted} over-deleted, {outcome.rederived} re-derived, "
        f"{outcome.rounds_run} maintenance rounds"
    )
    if verified is not None:
        print(f"# verify: {'digest matches from-scratch chase' if verified else 'MISMATCH'}")
    if args.stats:
        _print_stats(stats)
    return 1 if verified is False else (0 if result.terminated else 1)


def _cmd_rewrite(args: argparse.Namespace) -> int:
    theory = parse_theory(_read(args.theory, args.inline), name="cli")
    query = parse_query(_read(args.query, args.inline))
    budget = RewritingBudget(max_kept=args.max_kept, max_steps=args.max_steps)
    result = rewrite(theory, query, budget)
    stats = result.stats.as_dict()
    if args.json:
        _emit_json(
            {
                "command": "rewrite",
                "complete": result.complete,
                "always_true": result.always_true,
                "disjunct_count": len(result.ucq),
                "max_disjunct_size": result.max_disjunct_size(),
                "disjuncts": [repr(disjunct) for disjunct in result.ucq],
                "stats": stats,
            }
        )
        return 0 if result.complete else 2
    print(f"# complete: {result.complete}; {len(result.ucq)} disjuncts; "
          f"max size {result.max_disjunct_size()}")
    if args.stats:
        _print_stats(stats)
    for disjunct in result.ucq:
        print(disjunct)
    return 0 if result.complete else 2


def _cmd_answer(args: argparse.Namespace) -> int:
    import sqlite3

    from .storage import StoreChaseError

    try:
        resolved = resolve_backend(args.backend, args.db)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    theory = parse_theory(_read(args.theory, args.inline), name="cli")
    instance = parse_instance(_read(args.instance, args.inline))
    query = parse_query(_read(args.query, args.inline))
    chase_budget = None
    if args.deadline is not None:
        chase_budget = ChaseBudget(
            max_rounds=100, max_atoms=500_000, deadline_s=args.deadline
        )
    with _SigintCancel() as token:
        session = OMQASession(
            theory,
            chase_budget=chase_budget,
            db_path=resolved.path,
            cancel=token,
        )
        strategy = BACKEND_STRATEGIES[resolved.name]
        try:
            answers = session.answer(query, instance, strategy)
        except ChaseCancelled:
            print(
                "cancelled before the materialization reached a fixpoint; "
                "no sound answers to report",
                file=sys.stderr,
            )
            return 130
        except (ChaseBudgetExceeded, StoreChaseError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except sqlite3.DatabaseError as error:
            print(
                f"error: --db {args.db!r} is not a readable SQLite "
                f"database: {error}",
                file=sys.stderr,
            )
            return 2
    # Name the route taken: the strategy that evaluated a complete
    # rewriting, else the materialization fallback.
    if not session.prepare(query).complete:
        strategy = "materialize"
    elif strategy == "auto":
        strategy = "rewrite"
    stats = session.stats.as_dict()
    if args.backend == "sqlite":
        session.close()
    if args.json:
        _emit_json(
            {
                "command": "answer",
                "answer_count": len(answers),
                "answers": sorted(
                    [repr(term) for term in answer] for answer in answers
                ),
                "backend": args.backend,
                "strategy": strategy,
                "cache_info": session.cache_info(),
                "stats": stats,
            }
        )
        return 0
    print(f"# {len(answers)} certain answers (via {strategy})")
    if args.stats:
        _print_stats(stats)
    for answer in sorted(answers, key=repr):
        print(answer)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    theory = parse_theory(_read(args.theory, args.inline), name=args.name)
    report = classify(theory)
    if args.json:
        document = dataclasses.asdict(report)
        document["known_bdd_by_syntax"] = report.known_bdd_by_syntax()
        _emit_json({"command": "classify", **document})
        return 0
    print(*report.lines(), sep="\n")
    return 0


def _cmd_termination(args: argparse.Namespace) -> int:
    theory = parse_theory(_read(args.theory, args.inline), name="cli")
    instance = parse_instance(_read(args.instance, args.inline))
    witness = core_termination(theory, instance, max_depth=args.depth)
    if args.json:
        _emit_json(
            {
                "command": "termination",
                "bound": None if witness is None else witness.bound,
                "model": (
                    None
                    if witness is None
                    else sorted(repr(item) for item in witness.model)
                ),
                "max_depth": args.depth,
            }
        )
        return 0 if witness is not None else 2
    if witness is None:
        print(f"no Core-Termination witness within depth {args.depth} (unknown)")
        return 2
    print(f"c_(T,D) = {witness.bound}; model with {len(witness.model)} facts:")
    for item in sorted(witness.model, key=repr):
        print(" ", item)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from .frontier.td import figure1_apex_counts

    rows = figure1_apex_counts(args.n)
    if args.json:
        _emit_json(
            {
                "command": "figure1",
                "n": args.n,
                "levels": [
                    {"level": level, "satisfied": satisfied, "expected": expected}
                    for level, satisfied, expected in rows
                ],
            }
        )
        return 0
    print(f"doubling triangle over G^{2 ** args.n}:")
    for level, satisfied, expected in rows:
        bar = "#" * satisfied
        print(f"  level {level}: {satisfied:>3}/{expected:<3} windows  {bar}")
    return 0


def _cmd_bench_guard(args: argparse.Namespace) -> int:
    from .bench import (
        compare_documents,
        default_baseline_path,
        run_guard_scenarios,
        validate_bench_document,
    )

    baseline_path = Path(
        args.baseline if args.baseline else default_baseline_path(args.quick)
    )
    document = run_guard_scenarios(quick=args.quick, repeats=args.repeats)
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf8"
        )
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf8"
        )
        print(f"# baseline written to {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(
            f"# no baseline at {baseline_path}; run with --update to create one",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf8"))
    validate_bench_document(baseline)
    report = compare_documents(document, baseline, tolerance=args.tolerance)
    if args.json:
        _emit_json(
            {
                "command": "bench-guard",
                "ok": report.ok,
                "tolerance": args.tolerance,
                "baseline": str(baseline_path),
                "missing": report.missing,
                "rows": [
                    {
                        "name": row.name,
                        "baseline_seconds": row.baseline_seconds,
                        "current_seconds": row.current_seconds,
                        "normalized_ratio": round(row.normalized_ratio, 4),
                        "value_matches": row.value_matches,
                        "regressed": row.regressed,
                    }
                    for row in report.rows
                ],
            }
        )
        return 0 if report.ok else 1
    print(report.table().render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import OMQAService

    budget = ChaseBudget(
        max_rounds=args.rounds,
        max_atoms=args.max_atoms,
        deadline_s=args.chase_deadline,
    )

    async def run() -> int:
        service = OMQAService(
            host=args.host,
            port=args.port,
            db_dir=args.db_dir,
            workers=args.workers,
            deadline=args.deadline,
            chase_budget=budget,
        )
        await service.start()
        if args.json:
            _emit_json(
                {
                    "command": "serve",
                    "address": service.address,
                    "host": service.host,
                    "port": service.port,
                    "workers": args.workers,
                    "db_dir": args.db_dir,
                }
            )
        else:
            print(f"# serving OMQA on {service.address} (Ctrl-C to stop)")
        sys.stdout.flush()

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await stop.wait()
        finally:
            # Graceful: stop accepting, drain in-flight, checkpoint WALs.
            await service.shutdown(drain_s=args.drain)
            for signum in installed:
                loop.remove_signal_handler(signum)
        if not args.json:
            print("# drained and checkpointed; bye", file=sys.stderr)
        return 0

    return asyncio.run(run())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .bench.loadgen import run_loadgen

    host = port = None
    if args.url:
        target = args.url
        for prefix in ("http://", "https://"):
            if target.startswith(prefix):
                target = target[len(prefix) :]
        target = target.rstrip("/")
        host, _, port_text = target.partition(":")
        if not port_text:
            print(f"# --url needs host:port, got {args.url!r}", file=sys.stderr)
            return 2
        port = int(port_text)
    report = run_loadgen(
        clients=args.clients,
        ops_per_client=args.ops,
        append_every=args.append_every,
        workers=args.workers,
        quick=args.quick,
        host=host,
        port=port,
    )
    ok = report["digests_match"] and report["errors"] == 0
    if args.json:
        _emit_json({"command": "loadgen", "ok": ok, **report})
        return 0 if ok else 1
    latency = report["latency_ms"]
    print(
        f"# loadgen: {report['clients']} clients x "
        f"{report['ops_per_client']} ops "
        f"({report['ops']['queries']} queries, "
        f"{report['ops']['appends']} appends)"
    )
    print(
        f"# {report['requests']} requests in {report['seconds']}s = "
        f"{report['throughput_rps']} req/s; "
        f"p50 {latency['p50']}ms, p99 {latency['p99']}ms, "
        f"max {latency['max']}ms"
    )
    print(
        f"# journal={report['journal_mode']}, rewriting compiles="
        f"{report['rewrite_cache_misses']} "
        f"(hits={report['rewrite_cache_hits']})"
    )
    for name, digest in sorted(report["final_digests"].items()):
        print(f"#   {name}: {digest}")
    verdict = "all backends digest-identical to a fresh from-scratch answer"
    if not report["digests_match"]:
        verdict = f"DIGEST MISMATCH: {report['backend_digests']}"
    if report["errors"]:
        verdict = f"{report['errors']} ERRORS: {report['error_samples']}"
    print(f"# {verdict}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    chase_cmd = commands.add_parser("chase", help="materialize a chase prefix")
    chase_cmd.add_argument("theory")
    chase_cmd.add_argument("instance", nargs="?", default=None)
    chase_cmd.add_argument("--rounds", type=int, default=10)
    chase_cmd.add_argument("--max-atoms", type=int, default=100_000)
    chase_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the chase stops at the next safe point "
        "and leaves resumable state (ChaseBudget.deadline_s)",
    )
    chase_cmd.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=DEFAULT_CHASE_BACKEND,
        help="where the chase runs: the object engine in RAM, the "
        "columnar hash-join kernel (default), or a SQLite fact store",
    )
    chase_cmd.add_argument(
        "--db",
        default=None,
        help="SQLite database path for --backend sqlite (default: in-memory)",
    )
    chase_cmd.add_argument(
        "--resume",
        action="store_true",
        help="continue a budget-stopped chase persisted at --db "
        "(the INSTANCE argument is ignored; the stored round 0 is the base)",
    )
    _add_common(chase_cmd, stats=True)
    chase_cmd.set_defaults(handler=_cmd_chase)

    update_cmd = commands.add_parser(
        "update", help="incrementally maintain a chased fixpoint"
    )
    update_cmd.add_argument("theory")
    update_cmd.add_argument(
        "instance",
        nargs="?",
        default=None,
        help="base instance (memory/columnar; sqlite reads the --db state)",
    )
    update_cmd.add_argument(
        "--add",
        default=None,
        metavar="FACTS",
        help="facts to add, in instance syntax (path, or literal with -e)",
    )
    update_cmd.add_argument(
        "--retract",
        default=None,
        metavar="FACTS",
        help="base facts to retract, in instance syntax",
    )
    update_cmd.add_argument("--rounds", type=int, default=100)
    update_cmd.add_argument("--max-atoms", type=int, default=500_000)
    update_cmd.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=DEFAULT_CHASE_BACKEND,
        help="maintain in RAM (memory/columnar) or inside a SQLite store",
    )
    update_cmd.add_argument(
        "--db",
        default=None,
        help="SQLite database holding a terminated store chase (--backend sqlite)",
    )
    update_cmd.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the maintained digest against a from-scratch chase "
        "(memory/columnar only; exits 1 on mismatch)",
    )
    _add_common(update_cmd, stats=True)
    update_cmd.set_defaults(handler=_cmd_update)

    rewrite_cmd = commands.add_parser("rewrite", help="UCQ rewriting (Theorem 1)")
    rewrite_cmd.add_argument("theory")
    rewrite_cmd.add_argument("query")
    rewrite_cmd.add_argument("--max-kept", type=int, default=2_000)
    rewrite_cmd.add_argument("--max-steps", type=int, default=200_000)
    _add_common(rewrite_cmd, stats=True)
    rewrite_cmd.set_defaults(handler=_cmd_rewrite)

    answer_cmd = commands.add_parser("answer", help="certain answers")
    answer_cmd.add_argument("theory")
    answer_cmd.add_argument("instance")
    answer_cmd.add_argument("query")
    answer_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for any fallback materialization chase",
    )
    answer_cmd.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="memory",
        help="evaluate the rewriting over objects in RAM, as hash joins "
        "over interned ids (columnar), or inside a SQLite store",
    )
    answer_cmd.add_argument(
        "--db",
        default=None,
        help="SQLite database path for --backend sqlite (default: in-memory)",
    )
    _add_common(answer_cmd, stats=True)
    answer_cmd.set_defaults(handler=_cmd_answer)

    classify_cmd = commands.add_parser("classify", help="syntactic classes")
    classify_cmd.add_argument("theory")
    classify_cmd.add_argument("--name", default="theory")
    _add_common(classify_cmd)
    classify_cmd.set_defaults(handler=_cmd_classify)

    termination_cmd = commands.add_parser(
        "termination", help="Core-Termination probe"
    )
    termination_cmd.add_argument("theory")
    termination_cmd.add_argument("instance")
    termination_cmd.add_argument("--depth", type=int, default=15)
    _add_common(termination_cmd)
    termination_cmd.set_defaults(handler=_cmd_termination)

    figure_cmd = commands.add_parser("figure1", help="Figure 1 triangle")
    figure_cmd.add_argument("-n", type=int, default=3, choices=(1, 2, 3))
    figure_cmd.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )
    figure_cmd.set_defaults(handler=_cmd_figure1)

    guard_cmd = commands.add_parser(
        "bench-guard", help="benchmark regression guard (BENCH_*.json)"
    )
    guard_cmd.add_argument(
        "--quick", action="store_true", help="reduced scenario sizes (CI mode)"
    )
    guard_cmd.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed calibration-normalized slowdown (0.25 = 25%%)",
    )
    guard_cmd.add_argument(
        "--baseline", default=None, help="baseline JSON path (default per mode)"
    )
    guard_cmd.add_argument(
        "--repeats", type=int, default=3, help="samples per scenario (best wins)"
    )
    guard_cmd.add_argument(
        "--update", action="store_true", help="rewrite the baseline and exit"
    )
    guard_cmd.add_argument(
        "--output", default=None, help="also write the fresh BENCH document here"
    )
    guard_cmd.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    guard_cmd.set_defaults(handler=_cmd_bench_guard)

    serve_cmd = commands.add_parser(
        "serve", help="run the OMQA HTTP service (repro.service)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
    )
    serve_cmd.add_argument(
        "--db-dir",
        default=None,
        help="directory for per-theory SQLite databases (default: a "
        "temporary directory removed on shutdown)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=4,
        help="threadpool size for engine work (each worker keeps its own "
        "WAL read connections)",
    )
    serve_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock bound; overruns answer 503",
    )
    serve_cmd.add_argument(
        "--drain",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests",
    )
    serve_cmd.add_argument(
        "--rounds", type=int, default=100, help="chase budget: max rounds"
    )
    serve_cmd.add_argument(
        "--max-atoms", type=int, default=500_000, help="chase budget: max atoms"
    )
    serve_cmd.add_argument(
        "--chase-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="chase budget: wall-clock bound per chase (ChaseBudget.deadline_s)",
    )
    serve_cmd.add_argument(
        "--json",
        action="store_true",
        help="announce the bound address as JSON on stdout",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    loadgen_cmd = commands.add_parser(
        "loadgen", help="concurrent-load bench against the OMQA service"
    )
    loadgen_cmd.add_argument(
        "--clients", type=int, default=8, help="concurrent client connections"
    )
    loadgen_cmd.add_argument(
        "--ops", type=int, default=24, help="operations per client"
    )
    loadgen_cmd.add_argument(
        "--append-every",
        type=int,
        default=6,
        help="every Nth op per client is an append (the rest are queries)",
    )
    loadgen_cmd.add_argument(
        "--workers",
        type=int,
        default=4,
        help="threadpool size of the in-process server (ignored with --url)",
    )
    loadgen_cmd.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke plan: at most 4 clients x 12 ops",
    )
    loadgen_cmd.add_argument(
        "--url",
        default=None,
        help="target an already-running server (host:port) instead of "
        "spinning one up in-process",
    )
    loadgen_cmd.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    loadgen_cmd.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
