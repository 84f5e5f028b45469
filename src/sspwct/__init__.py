"""Slot-specific priority choice rules with capacity transfers, the
cumulative offer mechanism over them, and property-checking oracles.

Import from the defining modules: ``sspwct.model``, ``sspwct.choice``,
``sspwct.mechanism``, ``sspwct.oracles``, ``sspwct.comparative``,
``sspwct.generator`` and ``sspwct.cli``."""
