"""Paper-suite performance benchmark (see README.md in this directory)."""
