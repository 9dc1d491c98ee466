"""Karel grid-world domain: the language (``lang``), worlds (``world``),
execution (``interp``) and dataset sampling (``gen``)."""
