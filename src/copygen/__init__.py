"""Temporal knowledge-graph completion with a sequential copy-generation
mixture: a masked copy head over each query's historical object vocabulary
blended with an open-vocabulary generation head.

Importing the package loads no submodule, so the CLI can configure thread
pools before numpy loads.
"""

import ctypes

__version__ = "0.1.0"

# glibc slides its mmap threshold up to 32 MiB, and its trim threshold to twice that, as blocks
# are freed, so arrays move between heap and own mappings and peak RSS varies by run: pin both.
if _mallopt := getattr(ctypes.pythonapi, "mallopt", None):  # the process's libc; glibc only
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
