"""The repository's contract benchmark (see bench/README.md)."""
