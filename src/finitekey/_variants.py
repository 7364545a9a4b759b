"""The PE bound variants, in a module that imports nothing.

`security` exports `VARIANTS` and checks a variant against it; the tuple
lives here so that the CLI's parser can offer it as ``--variant``'s choices
without loading numpy.
"""

# Recognised PE bound variants, in canonical (reporting) order.
VARIANTS = ("lemma2", "serfling")
