"""Finite element solver for the Cahn-Hilliard equation with dynamic
Cahn-Hilliard boundary conditions on a 2-D disk."""
