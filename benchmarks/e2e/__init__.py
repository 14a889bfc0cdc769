"""Real-socket end-to-end benchmark (see README.md in this directory).

client -> HttpKubeFenceProxy -> HttpApiServer -> admission ->
ObjectStore + WAL, three processes on loopback, production defaults.
``run.py`` is the one entry point; ``BENCHMARK.json`` at the repo root
is the machine-readable contract generated from :mod:`.metrics`.
"""
