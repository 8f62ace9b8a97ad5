"""First-use set-up of scpsim, and its timing in a fresh interpreter.

``first_use()`` does what every new process pays before its first real
call: the builtin profile fit, the colour kernels for every lane mode
(each built and checked by ``ei_validate``) and both histogram kernels.
Run as a script it times ``import scpsim`` plus ``first_use()`` and
prints the seconds; ``run.py`` starts it several times for ``setup_s``.
The script finds the package through ``PYTHONPATH``.
"""

from __future__ import annotations

import time


def first_use():
    import numpy as np

    from scpsim import colorspace, cycle_model, histeq, image_io

    profile = cycle_model.builtin_profile()
    # 40 pixels divide by 1, 5 and 8, and 16 gray pixels make one histogram group.
    rgb = image_io.ImageBuffer(width=40, height=1, channels=3, samples=np.arange(120, dtype=np.uint8))
    for mode in colorspace.CONVERT_MODES:
        colorspace.convert_image(rgb, colorspace.RGB2YIQ, mode, profile=profile)
    gray = image_io.ImageBuffer(width=16, height=1, channels=1, samples=np.arange(16, dtype=np.uint8))
    for mode in histeq.HISTEQ_MODES:
        histeq.histeq_image(gray, mode, profile=profile)
    return profile


if __name__ == "__main__":
    t0 = time.perf_counter()
    import scpsim  # noqa: F401  (the import is what is timed)

    first_use()
    print(repr(time.perf_counter() - t0))
