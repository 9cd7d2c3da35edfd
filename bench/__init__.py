"""The repo benchmark: see bench/README.md."""

WORKLOADS = ("compile_cold", "vm_single", "serve_tiered", "fleet_restart")

# The metrics read off the host clock (medians of noisy samples, judged
# against a bound). Every other metric is modeled time or an exact
# count: identical in every pass and bit-equal between two runs of one
# commit at one seed.
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
