"""Command-line interface: ``repro-compare``.

Every subcommand is a thin shell around the public API
(:mod:`repro.api`): it builds one :class:`~repro.api.session.Session`,
dispatches a declarative request through it, and renders the result either
as text (the default) or, with ``--format json``, as the schema-versioned
JSON document of :mod:`repro.api.serialize` — so any output can be piped
into ``python -m repro.api.validate`` or replayed through ``repro serve``.

Subcommands:

* ``check TEST.litmus --model TSO [--backend sat]`` — is the test allowed?
* ``compare MODEL1 MODEL2 [--deps/--no-deps]`` — compare two models with the
  template suite and print the contrasting tests.
* ``explore [--deps/--no-deps] [--dot FILE]`` — explore the parametric
  model space and print the Figure 4 report (optionally writing a DOT
  file).
* ``catalog`` — list the built-in named models and their formulas.
* ``models [--space deps]`` — list the catalog plus the parametric families
  with formulas, predicate vocabularies and descriptions.
* ``outcomes TEST.litmus --model TSO`` — enumerate the outcomes a model
  allows for the test's program.
* ``enumerate-verify [--bound large] [--jobs N] [--run-dir D --resume]`` —
  run the sharded exhaustive-enumeration pipeline and report whether the
  naive space induces the same model partition as the template suite.
* ``synthesize --space paper90 --observations FILE|-`` — invert the
  checker: find the parametric models consistent with observed verdicts,
  the weakest/strongest among them, exclusion witnesses, and suggested
  distinguishing tests (``--from-report`` replays a row of an exploration
  or ``explore --emit-verdicts`` document).
* ``serve [--port N]`` — answer a JSON-lines request stream over one warm
  session (stdin/stdout by default, a TCP socket with ``--port``).

Model names accept catalog names (``SC``, ``TSO``, ...), parametric names
(``M4044``), paths to ``.model`` files and anything registered in the
session's :class:`~repro.api.registry.ModelRegistry`; ``--model-file FILE``
(repeatable, any subcommand) registers the models of ``.model`` files up
front so later ``--model NAME`` arguments can refer to them.  ``--backend``
selects the admissibility strategy, ``--kernel`` the explicit backend's
checking kernel (``auto``/``native``/``bigint`` — see
:mod:`repro.native.backend`).  ``enumerate-verify --jobs`` is the only
parallel path: it spreads the pipeline's shards over worker processes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api.registry import UnknownModelError, UnknownTestError
from repro.io.model_file import ModelFileError
from repro.api.requests import CheckRequest, CompareRequest, ExploreRequest, OutcomesRequest
from repro.api.serialize import to_json
from repro.api.session import Session
from repro.comparison.report import exploration_report, hasse_dot
from repro.core.parametric import KNOWN_CORRESPONDENCES


def _make_session(args: argparse.Namespace) -> Session:
    """Build the one session a CLI invocation runs through.

    Models named by ``--model-file`` are parsed and registered before any
    request runs, so every subcommand can refer to them by name.
    """
    try:
        session = Session(
            backend=args.backend,
            kernel=getattr(args, "kernel", None),
        )
    except ValueError as error:
        raise SystemExit(str(error))
    for path in getattr(args, "model_file", None) or ():
        try:
            session.models.register(session.models.load(path))
        except (OSError, ValueError) as error:
            raise SystemExit(f"--model-file {path}: {error}")
    return session


def _emit_json(document: object) -> None:
    print(json.dumps(document, indent=2))


def _run(session: Session, request) -> object:
    # OSError/ModelFileError cover path-shaped model specs resolving to
    # missing or malformed .model files mid-request.
    try:
        return session.run(request)
    except (UnknownModelError, UnknownTestError, ModelFileError, OSError) as error:
        raise SystemExit(str(error))


def _resolve_test(session: Session, spec: str):
    try:
        return session.tests.resolve(spec)
    except (UnknownTestError, OSError) as error:
        raise SystemExit(str(error))


def _cmd_check(args: argparse.Namespace) -> int:
    session = _make_session(args)
    test = _resolve_test(session, args.test)
    result = _run(session, CheckRequest(test=test, model=args.model, witness=True))
    if args.format == "json":
        _emit_json(to_json(result))
        return 0
    print(test.pretty())
    print(result.describe())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    session = _make_session(args)
    suite = "standard" if args.deps else "no_deps"
    result = _run(session, CompareRequest(first=args.first, second=args.second, suite=suite))
    if args.format == "json":
        _emit_json(to_json(result))
        return 0
    print(result.describe())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    session = _make_session(args)
    space = "deps" if args.deps else "no_deps"
    result = _run(session, ExploreRequest(space=space))
    if args.format == "json":
        _emit_json(to_json(result))
    else:
        print(exploration_report(result, KNOWN_CORRESPONDENCES))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(hasse_dot(result, KNOWN_CORRESPONDENCES))
        if args.format != "json":
            print(f"\nwrote {args.dot}")
    if args.emit_verdicts:
        from repro.synth.observations import verdict_document_from_exploration

        document = verdict_document_from_exploration(result, space=space).to_json()
        with open(args.emit_verdicts, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        if args.format != "json":
            print(f"wrote verdict matrix to {args.emit_verdicts}")
    return 0


def _load_observations(args: argparse.Namespace):
    """Build the observation tuple from --observations / --from-report."""
    from repro.synth.observations import ObservationError, observations_from_document

    if bool(args.observations) == bool(args.from_report):
        raise SystemExit(
            "synthesize needs exactly one of --observations FILE|- or --from-report FILE"
        )
    source = args.observations or args.from_report
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as handle:
                text = handle.read()
    except OSError as error:
        raise SystemExit(str(error))
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SystemExit(f"{source}: not valid JSON: {error}")
    try:
        if args.from_report:
            return observations_from_document(document, as_model=args.as_model)
        if args.as_model is not None:
            # A verdict-matrix file passed via --observations still works,
            # it just needs the row selected.
            return observations_from_document(document, as_model=args.as_model)
        return observations_from_document(document)
    except (ObservationError, ValueError) as error:
        raise SystemExit(f"{source}: {error}")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.api.requests import SynthesizeRequest

    session = _make_session(args)
    observation_set = _load_observations(args)
    try:
        request = SynthesizeRequest(
            observations=tuple(observation_set),
            space=args.space,
            suggest_tests=args.suggest_tests,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    try:
        result = _run(session, request)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.format == "json":
        _emit_json(to_json(result))
        return 0
    print(result.describe())
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    session = _make_session(args)
    if args.format == "json":
        _emit_json([to_json(model) for model in session.models])
        return 0
    for line in session.models.summary():
        print(line)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.api.serialize import envelope, model_to_json
    from repro.compile import compile_model
    from repro.core.parametric import ALLOWED_OPTIONS, ALLOWED_OPTIONS_NO_DEP
    from repro.core.predicates import NO_DEP_PREDICATES, STANDARD_PREDICATES

    session = _make_session(args)
    spaces = {
        "no_deps": (
            ALLOWED_OPTIONS_NO_DEP,
            NO_DEP_PREDICATES,
            "the dependency-free space of Figure 4",
        ),
        "deps": (ALLOWED_OPTIONS, STANDARD_PREDICATES, "the full space of Section 4.2"),
    }
    families = []
    for key, (options, predicates, blurb) in spaces.items():
        space = session.models.space(key)
        families.append(
            {
                "key": key,
                "size": len(space),
                "predicates": list(predicates.names()),
                "codes": {
                    pair: [int(option) for option in allowed]
                    for pair, allowed in options.items()
                },
                "description": f"parametric models M{{ww}}{{wr}}{{rw}}{{rr}}: {blurb}",
            }
        )

    listed = list(session.models)
    if args.space:
        listed.extend(session.models.space(args.space))

    if args.format == "json":
        document = envelope("model_list")
        document["models"] = [
            model_to_json(model)
            if model.formula is not None
            else {
                "name": model.name,
                "formula": None,
                "predicates": list(model.predicates.names()),
                "description": model.description,
            }
            for model in listed
        ]
        document["families"] = families
        _emit_json(document)
        return 0

    print("Named models:")
    for model in listed:
        formula = model.formula if model.formula is not None else "<python function>"
        vocabulary = ", ".join(compile_model(model).vocabulary) or "(none)"
        print(f"  {model.name:10s} F(x, y) = {formula}")
        print(f"  {'':10s} predicates: {vocabulary}")
        if model.description:
            print(f"  {'':10s} {model.description}")
    print()
    print("Parametric families (names like M4044; digits = ww/wr/rw/rr reorder codes,")
    print("0=always, 1=different address, 2=no data dep, 3=1+2, 4=never):")
    for family in families:
        codes = " ".join(
            f"{pair}∈{{{','.join(str(code) for code in allowed)}}}"
            for pair, allowed in family["codes"].items()
        )
        print(f"  {family['key']:8s} {family['size']:3d} models, {codes}")
        print(f"  {'':8s} predicates: {', '.join(family['predicates'])}")
        print(f"  {'':8s} {family['description']}")
    if not args.space:
        print()
        print("(use --space deps|no_deps to list every model of a family)")
    return 0


def _cmd_outcomes(args: argparse.Namespace) -> int:
    session = _make_session(args)
    test = _resolve_test(session, args.test)
    result = _run(session, OutcomesRequest(test=test, model=args.model))
    if args.format == "json":
        _emit_json(to_json(result))
        return 0
    print(test.pretty())
    print()
    print(result.describe())
    return 0


def _cmd_enumerate_verify(args: argparse.Namespace) -> int:
    from repro.api.requests import ExhaustiveRequest
    from repro.pipeline.run import DEPS_REFUSAL

    if args.deps:
        print(f"enumerate-verify: {DEPS_REFUSAL}", file=sys.stderr)
        return 2
    session = _make_session(args)
    request = ExhaustiveRequest(
        bound=args.bound,
        jobs=args.jobs,
        shard_size=args.shard_size,
        limit=args.limit,
        run_dir=args.run_dir,
        resume=args.resume,
        shard_timeout=args.shard_timeout,
        shard_retries=args.shard_retries,
        adaptive=args.adaptive,
        audit_rate=args.audit_rate,
    )
    try:
        report = _run(session, request)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.format == "json":
        _emit_json(to_json(report))
    else:
        print(report.describe())
    if args.assert_match:
        if not report.complete:
            print(
                "enumerate-verify: run incomplete "
                f"(quarantined shards: {sorted(report.quarantined_shards)})",
                file=sys.stderr,
            )
            return 1
        if not report.matches_template:
            print("enumerate-verify: partitions disagree", file=sys.stderr)
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.serve import config_from_args, serve

    try:
        config = config_from_args(args)
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    return serve(_make_session(args), host=args.host, port=args.port, config=config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compare",
        description="Compare memory consistency models with bounded litmus tests (DAC 2011 reproduction).",
    )
    parser.add_argument(
        "--backend",
        choices=("explicit", "sat"),
        default="explicit",
        help="admissibility backend",
    )
    from repro.native.backend import KERNEL_CHOICES

    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="explicit-backend checking kernel: 'native' is the C extension, "
        "'bigint' the pure-Python reference; 'auto' (the default, also via "
        "REPRO_KERNEL) prefers native when built and falls back to bigint",
    )
    parser.add_argument(
        "--model-file",
        action="append",
        metavar="FILE",
        help="register the model defined in a .model file (repeatable)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_format(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format: human-readable text or a schema-versioned JSON document",
        )

    check = subparsers.add_parser("check", help="check one litmus test under one model")
    check.add_argument("test", help="path to a .litmus file")
    check.add_argument("--model", required=True, help="model name (SC, TSO, M4044, ...)")
    add_format(check)
    check.set_defaults(func=_cmd_check)

    compare = subparsers.add_parser("compare", help="compare two models")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.add_argument("--deps", action=argparse.BooleanOptionalAction, default=True,
                         help="include data-dependency tests (default: yes)")
    add_format(compare)
    compare.set_defaults(func=_cmd_compare)

    explore = subparsers.add_parser("explore", help="explore the parametric model space")
    explore.add_argument("--deps", action=argparse.BooleanOptionalAction, default=False,
                         help="use the 90-model space with dependencies (default: 36-model space)")
    explore.add_argument("--dot", help="write the Hasse diagram to this DOT file")
    explore.add_argument(
        "--emit-verdicts", metavar="PATH",
        help="also write the models×tests verdict matrix as an observation-"
        "compatible repro/verdicts document (drive 'repro synthesize "
        "--from-report' without re-checking)")
    add_format(explore)
    explore.set_defaults(func=_cmd_explore)

    synthesize = subparsers.add_parser(
        "synthesize",
        help="invert the checker: find the models consistent with observed "
        "verdicts ('which memory model is this hardware?')",
    )
    synthesize.add_argument(
        "--space", default="deps",
        help="parametric space to search: deps/paper90 (the 90-model space, "
        "default) or no_deps/paper36")
    synthesize.add_argument(
        "--observations", metavar="FILE",
        help="repro/observations JSON document ('-' reads stdin)")
    synthesize.add_argument(
        "--from-report", metavar="FILE",
        help="ingest one model's row of a repro/verdicts or "
        "repro/exploration_result document (see --as-model)")
    synthesize.add_argument(
        "--as-model", metavar="NAME", default=None,
        help="which row of a --from-report verdict matrix to replay")
    synthesize.add_argument(
        "--suggest-tests", type=int, default=3, metavar="N",
        help="propose up to N distinguishing tests when several models "
        "remain consistent (default: 3)")
    add_format(synthesize)
    synthesize.set_defaults(func=_cmd_synthesize)

    catalog = subparsers.add_parser("catalog", help="list the built-in models")
    add_format(catalog)
    catalog.set_defaults(func=_cmd_catalog)

    models = subparsers.add_parser(
        "models",
        help="list named models and the parametric families "
        "(formulas, predicate vocabulary, descriptions)",
    )
    models.add_argument(
        "--space", choices=("deps", "no_deps"), default=None,
        help="additionally list every model of this parametric family")
    add_format(models)
    models.set_defaults(func=_cmd_models)

    outcomes = subparsers.add_parser("outcomes", help="enumerate allowed outcomes of a program")
    outcomes.add_argument("test", help="path to a .litmus file")
    outcomes.add_argument("--model", required=True)
    add_format(outcomes)
    outcomes.set_defaults(func=_cmd_outcomes)

    enumerate_verify = subparsers.add_parser(
        "enumerate-verify",
        help="verify the template suite's completeness against the naive enumeration",
    )
    from repro.pipeline.run import BOUNDS

    enumerate_verify.add_argument(
        "--bound", choices=tuple(BOUNDS), default="small",
        help="naive-enumeration bound ('paper' is the full Theorem 1 bound)")
    enumerate_verify.add_argument(
        "--deps", action=argparse.BooleanOptionalAction, default=False,
        help="the 90-model space with dependencies: refused (exit 2) until the "
        "naive enumeration has dependency instructions (default: 36-model space)")
    enumerate_verify.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes checking shards (default: 1)")
    enumerate_verify.add_argument(
        "--shard-size", type=int, default=512, metavar="K",
        help="unique tests per shard / checkpoint granule (default: 512)")
    enumerate_verify.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="cap the number of unique tests (smoke runs)")
    enumerate_verify.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="checkpoint directory (one JSONL file per completed shard)")
    enumerate_verify.add_argument(
        "--resume", action="store_true",
        help="answer already-completed shards from --run-dir instead of re-checking")
    enumerate_verify.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="kill a parallel worker stuck on one job (a shard, or a raw range "
        "or audit batch of an adaptive run) past this long and retry the job "
        "on a fresh worker (default: no limit)")
    enumerate_verify.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="retries per job (beyond the first attempt) before the job "
        "is quarantined and the run reported incomplete (default: 2)")
    enumerate_verify.add_argument(
        "--adaptive", action=argparse.BooleanOptionalAction, default=False,
        help="partition-guided adaptive verification: skip tests whose "
        "verdict row provably coincides with an already-folded row "
        "(profile certificate) or cannot refine the partition (frontier "
        "certificate), derive verdicts by po-mask monotonicity, and "
        "checkpoint the folded partition itself; --no-adaptive is the "
        "exact brute force (the differential oracle)")
    enumerate_verify.add_argument(
        "--audit-rate", type=float, default=0.0, metavar="RATE",
        help="re-check this fraction of adaptively skipped tests end-of-run "
        "and fail if any skip certificate was unsound (requires --adaptive)")
    enumerate_verify.add_argument(
        "--assert-match", action="store_true",
        help="exit non-zero unless the run is complete and the naive "
        "partition matches the template suite's")
    add_format(enumerate_verify)
    enumerate_verify.set_defaults(func=_cmd_enumerate_verify)

    serve = subparsers.add_parser(
        "serve", help="answer JSON-lines requests over one warm session"
    )
    from repro.api.serve import add_serve_arguments

    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-compare`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
