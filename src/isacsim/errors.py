"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: configuration problems exit 2,
scenario problems exit 3, and per-waveform failures inside an otherwise
successful run exit 4.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class ParameterError(SimError):
    """Invalid waveform, grid, or format parameters."""


class ScenarioError(SimError):
    """Scene cannot be synthesized (target outside the unambiguous window,
    radial speed beyond the ambiguity limit, and similar)."""


class ProcessingError(SimError):
    """Signal-processing inputs are inconsistent (cube/schedule shape mismatch)."""


class NoDetectionError(ProcessingError):
    """Peak extraction ran on an all-zero map."""


class DataError(SimError):
    """Signal data is unusable (non-finite samples reaching the quantizer)."""


class OracleGuardError(SimError):
    """Brute-force oracle refused an instance larger than its size guard."""


class ConfigError(SimError):
    """Configuration text failed to parse or validate.

    `line` carries the 1-based line number of the offending text when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
