"""Wall-clock benchmark of the APSP pipeline and the query service.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
