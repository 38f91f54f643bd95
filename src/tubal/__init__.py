"""Low-tubal-rank tensor recovery toolkit.

t-product algebra and t-SVD for third-order tensors, Gaussian linear
measurement, an ADMM solver for regularized tensor-nuclear-norm
recovery, restricted-isometry analysis of the recovery guarantees, and
a reproducible benchmark harness.

Each module's ``__all__`` is its list of public names, kept beside the
definitions it names; the package exports the five lists of
``algebra``, ``analysis``, ``bench``, ``measurement`` and ``solver``,
in that order, and states none of its own.
"""

# assigned before the modules load, so that they can import it
__version__ = "0.1.0"

from . import algebra, analysis, bench, measurement, solver  # noqa: E402
from .algebra import *  # noqa: E402,F401,F403
from .analysis import *  # noqa: E402,F401,F403
from .bench import *  # noqa: E402,F401,F403
from .measurement import *  # noqa: E402,F401,F403
from .solver import *  # noqa: E402,F401,F403

__all__ = algebra.__all__ + analysis.__all__ + bench.__all__ + measurement.__all__ + solver.__all__
