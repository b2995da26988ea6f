"""Synopsis maintenance: the running-mean synopses and their L1 update quanta.

Both live in the driver's array lanes (`simulator._simulate`), and a sensor
reading is one row of a `(rows, dims)` float array, so this module defines
nothing. It stays importable because the benchmark's tracer
(`bench/tracer.py`) imports every module it names as a target, this one
included, and a missing module would end a traced run.
"""
