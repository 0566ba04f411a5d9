# Importing bdris before any test module imports numpy applies the package's
# default of one BLAS thread to the whole test session.
import bdris  # noqa: F401
