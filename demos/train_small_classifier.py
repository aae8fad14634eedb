"""Train the four-way clip classifier on a synthetic embedding corpus and
report the held-out operating point.

Uses the tiny embedding profile so the whole thing runs in under a
minute on a laptop. The corpus generator plants one template per class;
what the run demonstrates is the plumbing, not the ceiling.
"""
import argparse
import os
import tempfile

from talkover import model as model_mod
from talkover.features import PROFILES, load_embeddings
from talkover.manifest import read_manifest, read_split
from talkover.metrics import Scores, roc_auc, tpr_at_fpr
from talkover.model import CLASSES, TrainConfig
from talkover.synth import write_embedding_corpus

def load_split(records_by_id, ids, corpus_dir, profile):
    pairs = []
    for cid in ids:
        rec = records_by_id[cid]
        emb = load_embeddings(os.path.join(corpus_dir, rec.wav_path), profile)
        pairs.append((emb, CLASSES.index(rec.label)))
    return pairs

def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    profile = PROFILES["tiny"]
    with tempfile.TemporaryDirectory() as corpus_dir:
        write_embedding_corpus(corpus_dir, seed=args.seed)
        records_by_id = {r.clip_id: r
                         for r in read_manifest(os.path.join(corpus_dir, "manifest.jsonl"))}
        split = read_split(os.path.join(corpus_dir, "split.json"))
        train_set = load_split(records_by_id, split["train"], corpus_dir, profile)
        val_set = load_split(records_by_id, split["val"], corpus_dir, profile)
        test_set = load_split(records_by_id, split["test"], corpus_dir, profile)
        test_ids = split["test"]

        print("corpus: %d train / %d val / %d test"
              % (len(train_set), len(val_set), len(test_set)))

        # the loaded embeddings are handles on the corpus files, read a
        # clip at a time, so training runs while the corpus exists
        config = TrainConfig(epochs=args.epochs, seed=args.seed)
        result = model_mod.train(train_set, config, val_set)
        print("stopped after epoch %d, train loss %.4f, val loss %.4f"
              % (result.stopped_epoch, result.train_loss[-1], result.val_loss[-1]))

        probs = model_mod.forward_batch(result.model, [p[0] for p in test_set])
    samples = Scores(test_ids, [label for _, label in test_set], probs)

    positive = "failed_interruption"
    auc = roc_auc(samples, positive)
    tpr, tau = tpr_at_fpr(samples, positive, 0.01)
    print("test auc %.4f for %r" % (auc, positive))
    print("tpr %.2f at 1%% fpr (threshold %.3f)" % (tpr, tau))

    weights = model_mod.softmax(result.model.params["layer_logits"])
    print("learned layer weights: %s"
          % " ".join("%.3f" % w for w in weights))

if __name__ == "__main__":
    main()
