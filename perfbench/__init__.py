"""The grpn benchmark: workloads, tracing and metrics; run it with run.py."""
