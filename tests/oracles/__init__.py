"""Reference implementations the tests compare the library's kernels against.

Oracles are test code (ROADMAP 3c): slow, obviously-correct versions of
kernels whose shipping form was optimised, and the paper's definitions the
searches do not run as written (``separators``).  Tests import them as
``from oracles.<module> import ...`` (pytest puts ``tests/`` on the path).
"""
