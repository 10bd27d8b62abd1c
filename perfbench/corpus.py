"""Write the seeded POS-tagged word-event corpus of the corpus_lda workload.

    python3 perfbench/corpus.py --seed N --words N --dim D --out PATH

Each word's vector is the mean of its class plus unit Gaussian noise. The
class means are drawn once per seed, and the class name is the POS tag.
The file is written with trfkit.tensorio.write_word_events, so the time
of this script is the set-up time of the workload.
"""

import argparse

import numpy as np

from trfkit.tensorio import WordEvent, WordEventSequence, write_word_events

TAGS = ("ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "NOUN", "NUM", "PART", "PRON", "PROPN", "VERB")
# spread of the class means per dimension, against unit noise: the classes
# overlap, so nearest-centroid accuracy sits well below 1 and can drop
MEAN_SCALE = 0.25
WORD_GAP_S = 0.25


def make_corpus(seed: int, n_words: int, dim: int) -> WordEventSequence:
    rng = np.random.default_rng([seed, 0x1DA])
    means = rng.normal(0.0, MEAN_SCALE, size=(len(TAGS), dim))
    labels = rng.integers(0, len(TAGS), size=n_words)
    vectors = means[labels] + rng.standard_normal((n_words, dim))
    events = [
        WordEvent(token=f"w{k:06d}", onset_s=WORD_GAP_S * k, vector=vectors[k], pos_tag=TAGS[labels[k]])
        for k in range(n_words)
    ]
    return WordEventSequence(events=events, dim=dim)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--words", type=int, required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_word_events(args.out, make_corpus(args.seed, args.words, args.dim))


if __name__ == "__main__":
    main()
