"""Measure the near-duplicate share of an untrained decoder's predictions.

Usage (from the repository root):

    python3 perfbench/measure_duplicates.py

For seeds 0-9, runs the seeded decoder of ``mvdet decode`` (``init_decoder``
and ``init_queries`` with the scene-decode sizes: 900 queries, dim 64,
6 layers, K=16, 8 heads) over a bilinear random-field pyramid of the
nuscenes-like rig, and prints the share of prediction rows that repeat an
earlier row (same class, centre within 5 cm).  train-eval sets its
near-duplicate rows from the median.
"""

import os
import statistics
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mvdet import decoder, synth  # noqa: E402
from workloads import duplicate_row_frac  # noqa: E402


def main() -> None:
    rig = synth.gen_rig("nuscenes-like")
    shares = []
    for seed in range(10):
        pyr = synth.render_pyramid(synth.random_field(seed, "bilinear", 64), rig, synth.DEFAULT_STRIDES)
        layers = decoder.init_decoder(seed, layers=6, dim=64, neighbors=16, heads=8)
        head = decoder.PredictionHead.seeded(seed, dim=64, num_classes=10)
        qs = decoder.init_queries(seed, count=900, dim=64, bounds=synth.DEFAULT_BOUNDS)
        refined, refs = decoder.decoder_forward(qs, layers, pyr, rig)
        shares.append(duplicate_row_frac(decoder.decode_predictions(refined, refs[-1], head)))
        print(f"seed {seed}: {shares[-1]:.4f}", flush=True)
    print(f"median {statistics.median(shares):.4f}")


if __name__ == "__main__":
    main()
