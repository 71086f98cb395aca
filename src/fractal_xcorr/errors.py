"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user input: malformed files, bad parameters, failed alignment."""


class DegenerateFluctuationError(ArithmeticError):
    """A fluctuation function vanished, or is not finite, where it must be usable.

    Raised e.g. for constant series (zero DMA variance), perfectly linear
    profiles under polynomial detrending, or a zero portfolio-variance
    denominator.
    """
