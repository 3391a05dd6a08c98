"""The repo benchmark: ``python3 bench/run.py`` (see bench/README.md)."""
