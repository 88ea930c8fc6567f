"""Layered video: trace records and their text format, the GOP structure,
the synthetic trace generator and the playout buffer."""
