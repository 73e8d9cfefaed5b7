"""The repository's one end-to-end benchmark; see ``bench/README.md``."""
