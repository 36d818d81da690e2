"""`bench_e2e`: the repo's end-to-end, layer-attributed benchmark.

Run ``python3 -m bench_e2e`` from the repository root; see README.md here
for the workloads, the metrics and how to read a trace.  Importing this
package does nothing; ``__main__`` is the entry point.
"""
