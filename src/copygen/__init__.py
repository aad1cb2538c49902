"""Temporal knowledge-graph completion with a sequential copy-generation
mixture: a masked copy head over each query's historical object vocabulary
blended with an open-vocabulary generation head.

Importing the package loads no submodule, so the CLI can configure thread
pools before numpy loads.
"""

__version__ = "0.1.0"
