"""Small tour of the crowd-label pipeline: per-clip consensus,
chance-corrected agreement, and annotator accuracy against a golden set,
plus a precedence rule a study could apply to multi-label clips."""
from talkover.labels import (Votes, aggregate_all, annotator_accuracy,
                             fleiss_kappa, votes_to_table)

# Three clips, seven annotators each. clip_a is a clean majority, clip_b
# sits exactly on the 70 percent bar, clip_c splits down the middle.
BALLOTS = {
    "clip_a": ["laughter"] * 5 + ["other"] * 2,
    "clip_b": ["backchannel"] * 5 + ["laughter", "other"],
    "clip_c": ["failed_interruption"] * 3 + ["backchannel"] * 3 + ["other"],
}

def main():
    # the same (clip_id, annotator_id, label) rows that read_votes_csv
    # takes from a votes CSV, coded into columns by the same function
    votes = Votes.from_rows((cid, "ann_%d" % i, lab)
                            for cid, labs in BALLOTS.items()
                            for i, lab in enumerate(labs))

    print("consensus at the default 0.7 bar:")
    for res in aggregate_all(votes):
        verdict = res.label if res.accepted else "rejected"
        print("  %-8s %-20s agreement %d/%d"
              % (res.clip_id, verdict,
                 round(res.agreement_fraction * res.vote_count), res.vote_count))

    # Each vote names one label, so the library needs no precedence rule.
    # Were a clip tagged with several phenomena, letting the rarest win
    # would keep a failed interruption from being drowned out by laughter.
    precedence = ("failed_interruption", "backchannel", "laughter", "other")
    mixed = ["laughter", "backchannel", "failed_interruption"]
    resolved = next(label for label in precedence if label in mixed)
    print("\nprecedence over %s -> %r" % (mixed, resolved))

    table, _ = votes_to_table(votes)
    print("\nagreement beyond chance: kappa = %.3f" % fleiss_kappa(table))

    golden = {"clip_a": "laughter", "clip_b": "backchannel"}
    print("\nper-annotator accuracy on the %d golden clips:" % len(golden))
    for ann, stats in annotator_accuracy(votes, golden).items():
        print("  %-6s %d/%d = %.2f"
              % (ann, stats["correct"], stats["total"], stats["accuracy"]))

if __name__ == "__main__":
    main()
