#!/usr/bin/env python3
"""Tour of the label algebra: taint, flow order, capabilities, pacing."""

from tifcsim import Capability, CapabilitySet, Frequency, Label

f = Frequency(1, 5)  # one bit per five ticks

# A message whose bits are Alice's, but whose timing was influenced by both
# Alice (unbounded) and Bob (at most f bits per tick).
msg = Label.parse("{A/A:inf,B:1/5}")
print("message label:", msg)
print("content tags: ", sorted(msg.content))
print("timing tags:  ", {u: str(fr) for u, fr in msg.timing.items()})

# The flow order: tainted data cannot reach a less-tainted destination.
empty = Label.parse("{-/-}")
print("\nflows to {-/-}?", msg.flows_to(empty))
print("flows to {A,B/A:inf,B:inf}?",
      msg.flows_to(Label.parse("{A,B/A:inf,B:inf}")))

# Receiving joins labels: taint only ever grows.
receiver = Label.parse("{B/B:inf}")
print("\nreceiver after accepting the message:", receiver.join(msg))

# Declassification capabilities remove exactly what they are strong enough
# to remove. Bob's rate-f timing declassifier cannot scrub a rate-2f tag.
caps = CapabilitySet([Capability("A"), Capability("B", f)])
print("\ndeclassify with {A-, B-:1/5}:", msg.declassify(caps))
weak = CapabilitySet([Capability("B", Frequency(1, 10))])
print("declassify with {B-:1/10}:  ", msg.declassify(weak), "(too weak)")

# B-:inf and B- are one capability: an unbounded limit strips content too.
lab = Label.parse("{A,B/A:inf,B:inf}")
print("\nB-:inf vs B- on", lab)
print("  timing form: ", lab.declassify(CapabilitySet([Capability("B", Frequency(1, 0))])))
print("  content form:", lab.declassify(CapabilitySet([Capability("B")])))

# Pacing a queue at frequency f justifies capping timing tags at f.
hot = Label.parse("{A/A:inf,B:inf}")
print("\nbefore pacer:", hot)
print("after pacer: ", hot.pace_down(f))

# Timing-only interactions taint timing, never content.
sched = Label.parse("{A,B/A:inf,B:inf}")
print("\nscheduler label lifted to pure timing taint:", sched.lift_to_timing())
