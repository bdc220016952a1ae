"""covop: conformally covariant differential operators on R^n.

Exact constructions of the one-step covariant family, its iterates and their
hyperplane restrictions (Juhl-type operators), the Fourier-symbol algebra
that factors the convolution intertwiners through them, and seeded numerical
verification of every covariance and ambient-space identity involved.
"""

__version__ = "0.1.0"
