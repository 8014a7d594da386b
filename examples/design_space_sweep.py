#!/usr/bin/env python3
"""Design-space exploration with the analytical model.

The point of an analytical model over a simulator is speed: thousands of
design points per second instead of minutes per point.  This example
uses the model as the paper intends — "a practical evaluation tool for
gaining insight" — to answer three design questions for a 256-node
machine under 40% hot-spot traffic:

1. Do more virtual channels help hot-spot traffic?
2. Is a wider (higher-radix, lower-dimensional) torus better than a
   deeper one at equal node count?  (Uses the n-dimensional extension.)
3. How does message length trade against saturation bandwidth?

Run:  python examples/design_space_sweep.py
"""

from repro import HotSpotLatencyModel, NDimHotSpotModel

H = 0.4
LM = 32


def q1_virtual_channels() -> None:
    print("Q1: virtual channels (16x16 torus, Lm=32, h=40%)")
    print(f"{'V':>3} | {'saturation rate':>16} | {'latency @ 2e-4':>15}")
    print("-" * 42)
    for v in (2, 3, 4, 6, 8):
        model = HotSpotLatencyModel(
            k=16, message_length=LM, hotspot_fraction=H, num_vcs=v
        )
        sat = model.saturation_rate(hi=0.01)
        lat = model.evaluate(2e-4).latency
        print(f"{v:>3} | {sat:>16.6f} | {lat:>15.1f}")
    print("(The hot column is a *bandwidth* bottleneck: extra VCs shave "
        "queueing\n variance but cannot create bandwidth, so returns "
        "diminish fast.)\n")


def q2_radix_vs_dimension() -> None:
    print("Q2: radix vs dimension at ~256 nodes (Lm=32, h=40%)")
    print(f"{'shape':>10} | {'saturation rate':>16} | {'zero-load latency':>18}")
    print("-" * 52)
    for k, n in ((256, 1), (16, 2), (4, 4), (2, 8)):
        model = NDimHotSpotModel(
            k=k, n=n, message_length=LM, hotspot_fraction=H
        )
        sat = model.saturation_rate(hi=0.05)
        lat0 = model.evaluate(0.0).latency
        print(f"{f'{k}^{n}':>10} | {sat:>16.6f} | {lat0:>18.1f}")
    print("(Low-dimensional high-radix networks walk farther per message;"
          "\n high-dimensional ones concentrate hot traffic on the last "
          "dimension's\n final channels — the bottleneck rate "
          "lam*h*k^(n-1)*(k-1) barely moves.)\n")


def q3_message_length() -> None:
    print("Q3: message length vs saturation (16x16, h=40%)")
    print(f"{'Lm':>5} | {'saturation rate':>16} | {'sat * Lm (flits)':>17}")
    print("-" * 46)
    for lm in (8, 16, 32, 64, 100, 128):
        model = HotSpotLatencyModel(
            k=16, message_length=lm, hotspot_fraction=H
        )
        sat = model.saturation_rate(hi=0.05)
        print(f"{lm:>5} | {sat:>16.6f} | {sat * lm:>17.6f}")
    print("(Saturation rate scales ~1/Lm: the hot column's flit bandwidth "
          "is the\n invariant — the product sat*Lm stays ~constant.)")


def main() -> None:
    q1_virtual_channels()
    q2_radix_vs_dimension()
    q3_message_length()


if __name__ == "__main__":
    main()
