"""Show every feature representation the pipeline knows for one clip."""
import tempfile

import numpy as np

from talkover.features import (PROFILES, LayeredEmbedding, load_embeddings,
                               mfcc, spectrogram, write_embeddings)

RATE = 16000

def main():
    # ten seconds, interrupter holding a 1 kHz tone over a silent room
    t = np.arange(10 * RATE) / RATE
    clip = np.stack([np.zeros(10 * RATE), 0.3 * np.sin(2 * np.pi * 1000.0 * t)], axis=1)

    cepstra = mfcc(clip)
    print("mfcc: %s  (both channels stacked, 40 coefficients each)"
          % (cepstra.shape,))

    spec = spectrogram(clip)
    print("spectrogram: %s" % (spec.shape,))
    peak = int(np.argmax(spec[257:, spec.shape[1] // 2]))
    hz = peak * RATE / 512.0
    print("  interrupter-channel peak at bin %d = %.0f Hz" % (peak, hz))

    for name, profile in sorted(PROFILES.items()):
        print("%s embeddings: %d layers x %d dims" % (name, profile.layers, profile.dim))

    profile = PROFILES["tiny"]
    data = np.random.default_rng(0).normal(
        0, 1, (profile.channels, profile.layers, profile.dim, profile.frames))
    emb = LayeredEmbedding(data.astype(np.float32), profile)
    with tempfile.NamedTemporaryFile(suffix=".sie") as fh:
        write_embeddings(fh.name, emb)
        back = np.empty(profile.shape, np.float32)
        load_embeddings(fh.name, profile).read_into(back)
        print("embedding container round trip: %s, intact %s"
              % (back.shape, bool(np.array_equal(back, emb.data))))

if __name__ == "__main__":
    main()
