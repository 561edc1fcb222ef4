"""Command-line interface: each command builds its config, loads its models
where it needs them, makes one library call and prints. The state commands
run pipeline.mine_corpus, update_state and export_state, which hold every
rule on --out and --state paths.

Exit codes: 0 success, 2 bad input (config file, event file, saved state, a
model, score, pattern, lexicon or abbreviation file that the command reads,
an unreadable input path, or an --out or --state path that pipeline
refuses), 3 an SVD memory budget below its least
(cardbuild.MemoryBudgetError). A command reads only its model inputs (see
pipeline.Models): a bad file fails only its readers.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import cardbuild, corpus, defmine, nertag, pipeline, topicrank

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

logger = logging.getLogger("kbmine")


# flag -> (the PipelineConfig field it overrides, type, help)
_CONFIG_FLAGS = {
    "--corpus": ("corpus_path", str, "JSONL corpus path"),
    "--out": ("output_dir", str, "output directory"),
    "--seed": ("seed", int, None),
    "--top-n": ("final_top_k", int, "final topic count"),
    "--card-k": ("card_k", int, "related items per card"),
    "--mem-budget": ("memory_budget", int, "SVD memory budget in bytes"),
}


def _load_config(args) -> pipeline.PipelineConfig:
    overrides = {field: getattr(args, field, None) for field, _, _ in _CONFIG_FLAGS.values()}
    return pipeline.PipelineConfig.from_file(args.config, **overrides)


def _add_config(parser, *flags):
    """--config plus the given config-overriding flags: the ones the command reads."""
    parser.add_argument("--config", help="JSON config file")
    for flag in flags:
        field, kind, help_text = _CONFIG_FLAGS[flag]
        parser.add_argument(flag, dest=field, type=kind, help=help_text)


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    docs, errors = corpus.ingest_jsonl(cfg.corpus_path)
    for err in errors:
        print(f"line {err.line_number}: {err.reason}", file=sys.stderr)
    live = sum(not doc.deleted for doc in docs)  # a document's last record may delete it
    print(f"{live} documents, {len(errors)} errors")
    return EXIT_OK


def cmd_train_tagger(args) -> int:
    data = nertag.read_tagger_data(args.data)
    cfg = nertag.TrainConfig(
        gamma=args.gamma, epochs=args.epochs, learning_rate=args.lr, seed=args.seed
    )
    model = nertag.train_tagger(data, cfg)
    model.save(args.model)
    print(f"trained on {len(data)} sentences, final loss {model.final_training_loss:.4f}, "
          f"stored {len(model.rows)} of {model.hash_dim} weight rows")
    return EXIT_OK


def cmd_train_ranker(args) -> int:
    state = pipeline.PipelineState.load(args.state)
    labels = topicrank.load_label_file(args.labels)
    rows = []
    for key, label in labels.items():
        cand = state.store.candidates.get(key)
        if cand is not None:
            rows.append((topicrank.compute_features(cand), label))
    model = topicrank.train_gbdt(rows)
    model.save(args.model)
    scores = [topicrank.score_topic(model, f) for f, _ in rows]
    print(f"trained on {len(rows)} rows, training AUC "
          f"{topicrank.auc(scores, [y for _, y in rows]):.3f}")
    return EXIT_OK


def cmd_train_defclassifier(args) -> int:
    rows = defmine.load_training_csv(args.data)
    model = defmine.train_sentence_classifier(
        rows, defmine.ClassifierConfig(seed=args.seed)
    )
    model.save(args.model)
    print(f"trained on {len(rows)} sentences, "
          f"stored {len(model.rows)} of {model.hash_dim} weight rows")
    return EXIT_OK


def cmd_mine(args) -> int:
    cfg = _load_config(args)
    kb = pipeline.mine_corpus(cfg, args.state)
    print(f"{len(kb.cards)} cards written to {cfg.output_dir}")
    return EXIT_OK


def cmd_update(args) -> int:
    models = pipeline.Models.load(_load_config(args))
    print(f"applied {pipeline.update_state(args.state, args.events, models)} events")
    return EXIT_OK


def cmd_refresh(args) -> int:
    cfg = _load_config(args)
    models = pipeline.Models.load(cfg)
    ranked = pipeline.rank_refresh(pipeline.PipelineState.load(args.state), cfg, models)
    for key, score in ranked.entries:
        print(f"{score:.4f}\t{key}")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _load_config(args)
    kb = pipeline.export_state(args.state, cfg, pipeline.Models.load(cfg))
    print(f"{len(kb.cards)} cards written to {cfg.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbmine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and count a corpus file")
    _add_config(p, "--corpus")

    p = sub.add_parser("train-tagger", help="train the token tagger")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", required=True, help="JSONL of {tokens, labels}")
    p.add_argument("--model", required=True, help="output model path (.npz)")
    p.add_argument("--gamma", type=float, default=1.6)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.5)

    p = sub.add_parser("train-ranker", help="train the GBDT topic ranker")
    p.add_argument("--state", required=True, help="pipeline state directory")
    p.add_argument("--labels", required=True, help="CSV key,label")
    p.add_argument("--model", required=True, help="output model path (.json)")

    p = sub.add_parser("train-defclassifier", help="train the sentence classifier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", required=True, help="CSV category,text")
    p.add_argument("--model", required=True, help="output model path (.npz)")

    p = sub.add_parser("mine", help="full batch run")
    _add_config(p, *_CONFIG_FLAGS)
    p.add_argument("--state", help="directory to persist pipeline state")

    p = sub.add_parser("update", help="apply a JSONL event stream")
    _add_config(p)
    p.add_argument("--state", required=True)
    p.add_argument("--events", required=True)

    p = sub.add_parser("refresh", help="recompute the ranked topic list")
    _add_config(p, "--top-n")
    p.add_argument("--state", required=True)

    p = sub.add_parser("export", help="rebuild and export the knowledge base")
    _add_config(p, "--out", "--seed", "--top-n", "--card-k", "--mem-budget")
    p.add_argument("--state", required=True)

    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "train-tagger": cmd_train_tagger,
    "train-ranker": cmd_train_ranker,
    "train-defclassifier": cmd_train_defclassifier,
    "mine": cmd_mine,
    "update": cmd_update,
    "refresh": cmd_refresh,
    "export": cmd_export,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except pipeline.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:  # bad input data or a path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except cardbuild.MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
