"""Exact cohomotopy workbench.

Cosimplicial groups and their cohomotopy, nilpotent Lie algebras and
unipotent groups via truncated Baker-Campbell-Hausdorff multiplication,
truncated enveloping algebras, finite group cohomology, (phi,N)-module
Selmer quotients, and mixed-Hodge torsor classification -- all with exact
rational arithmetic, Gaussian rationals computed on realified rational
coordinates.
"""

__version__ = "0.1.0"
