"""perflab: the repository's benchmark.  See ``perflab/README.md``."""
