"""Why clip: rare huge spikes versus the unclipped baseline.

Pairs a clipped gradient-descent run against vanilla on identical noise
(per-seed streams match exactly), with rare spikes a hundred times the
noise scale.  The clipping level here is deliberately set below the spike
size (off-guarantee knob), since the guarantee levels are calibrated so
generously that this bounded noise never trips them.  The settings are
``configs/sgd_vs_vanilla.cfg``, the config ``clipopt compare`` runs.
"""

from pathlib import Path

from clipopt import harness
from clipopt.config import load_config

CONFIG = Path(__file__).resolve().parent / "configs" / "sgd_vs_vanilla.cfg"


def main():
    cfg = load_config(CONFIG)
    comp = harness.compare_clipped_vanilla(cfg)
    print(f"paired seeds: {comp.n_pairs}")
    print(f"final gap median: clipped {comp.clipped_median:.3e} "
          f"vs vanilla {comp.vanilla_median:.3e} (ratio {comp.median_ratio:.3f})")
    print(f"upper (90%) quantile: clipped {comp.clipped_upper:.3e} "
          f"vs vanilla {comp.vanilla_upper:.3e}")
    print(f"vanilla divergences: {comp.vanilla_diverged}")


if __name__ == "__main__":
    main()
