"""End-to-end benchmark: see README.md (a package so that its modules are
``e2e.run``, ``e2e.spans``, ... and never shadow a top-level name)."""
