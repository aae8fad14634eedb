"""Walk through candidate detection on a synthetic three-person meeting.

The meeting is 110 seconds long. Two of the speech onsets are engineered
to pass every gate, the rest trip one of them, so the printed tally shows
the whole decision surface of the detector. Each candidate also gets a
weak floor label from the VAD activity masks of its clip's second half.
"""
import argparse
import os

import numpy as np

from talkover.audio import SAMPLE_RATE, AudioChannel, MeetingAudio, write_wav
from talkover.overlap import (ONSET_OFFSET_S, VadParams, activity_frames, detect,
                              export_clip, vad)
from talkover.synth import make_meeting_audio


def floor_outcome(clip, params):
    """"overtake" iff within the clip's last 5 seconds the interrupter
    (column 1) holds an unbroken solo stretch of at least 1.5 s while
    the mixdown (column 0) is silent. A weak oracle, not ground truth.
    """
    half = int(ONSET_OFFSET_S * SAMPLE_RATE)
    right, left = (activity_frames(AudioChannel(clip[half:, col], SAMPLE_RATE, name), params)
                   for col, name in ((1, "interrupter"), (0, "mix")))
    solo = np.concatenate(([False], right & ~left, [False]))
    runs = np.flatnonzero(np.diff(solo)).reshape(-1, 2)
    frame_s = params.frame_samples(SAMPLE_RATE) / SAMPLE_RATE
    overtake = (runs[:, 1] - runs[:, 0] >= round(1.5 / frame_s)).any()
    return "overtake" if overtake else "no_overtake"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="directory for exported clip WAVs (skip export if unset)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tracks = make_meeting_audio(args.seed)
    channels = tuple(AudioChannel(tracks[name], 16000, name)
                     for name in sorted(tracks))
    meeting = MeetingAudio(channels, "demo")
    print("meeting %r: %d channels, %.0f s"
          % (meeting.meeting_id, len(channels), meeting.duration_s))

    params = VadParams()
    segments = []
    for ch in channels:
        segs = vad(ch, params)
        segments.append(segs)
        spans = ", ".join("%.1f-%.1f" % (start, end) for start, end in segs)
        print("  %-6s speaks at %s" % (ch.participant_id, spans))

    result = detect(meeting, segments)
    print("\n%d candidate clips" % len(result.candidates))
    for reason in sorted(result.rejections):
        print("  rejected %-22s %d" % (reason, result.rejections[reason]))

    for rec in result.candidates:
        clip = export_clip(rec, meeting)
        outcome = floor_outcome(clip, params)
        print("\n%s: %s interrupts at %.1f s, weak floor label %r"
              % (rec.clip_id, rec.interrupter_id, rec.onset_s, outcome))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, rec.clip_id + ".wav")
            write_wav(path, clip)
            print("  wrote %s" % path)

if __name__ == "__main__":
    main()
