"""Business exposure to contact-limiting interventions.

A reproducible pipeline: classify occupations by their reliance on
face-to-face communication and physical proximity, aggregate to industry
and ZIP-level exposure shares, calibrate a communication cost model, and
compute the wage subsidies that would compensate businesses for a cap on
worker contacts.

Library callers import from the layer modules (``from distancing.geo import
read_cbp_csv``); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
