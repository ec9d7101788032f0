"""Knowledge-graph embedding with iterative self-distillation.

The package trains four bilinear link-prediction models (DistMult, ComplEx,
TuckER, LowFER) with 1-N binary cross entropy, optionally mixing in a
temperature-softened self-distillation loss driven by a semantic extraction
block, and evaluates filtered MRR / Hits@k over both prediction directions.
Import the submodules (``kgedistill.training``, ``kgedistill.models``, ...)
for the API; the package root holds only the version.
"""

__version__ = "0.1.0"
