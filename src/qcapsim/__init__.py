"""qcapsim: nonlinear graphene quantum capacitors for cryogenic microwave circuits.

Computes the quantum-capacitance model of a graphene/dielectric/graphene
stack, quantizes the anharmonic LC mode it forms, derives the pump-selected
multimode interaction rates, and simulates the three-mode circulator those
couplings enable.

Every name is imported from the module that defines it (e.g. ``from
qcapsim.mode import nonlinear_time_constant``); ``import qcapsim`` itself
loads no submodule and no numpy.
"""

__version__ = "0.1.0"
