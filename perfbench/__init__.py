"""The repository benchmark: three workloads, one command (``run.py``)."""
