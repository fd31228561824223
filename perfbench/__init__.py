"""perfbench: the repository's one trusted benchmark (see README.md)."""
