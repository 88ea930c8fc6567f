"""The simulator: scenario config, the streaming engine, run metrics, the
Monte-Carlo harness, result files and the ``mcnc-sim`` command line."""
