"""Exception hierarchy shared across the package, and its one count check."""

import numbers


class GutiError(Exception):
    """Base class for all guti errors."""


class CatalogError(GutiError):
    """Malformed form catalog file or unresolvable form id."""


class UnknownFormError(CatalogError):
    """A form id does not resolve in the catalog."""

    def __init__(self, form_id: str, known: list[str] | None = None):
        self.form_id = form_id
        self.known = known or []
        msg = f"unknown form: {form_id!r}"
        if self.known:
            msg += " (known forms: " + ", ".join(self.known) + ")"
        super().__init__(msg)


class CorpusError(GutiError):
    """Invalid poem data or corpus file."""


class SerializationError(CorpusError):
    """Text cannot be mapped to/from the field-marker sequence format."""


class VocabError(GutiError):
    """Vocabulary construction or lookup failure."""


class ModelError(GutiError):
    """Bad model configuration or invalid forward/backward input."""


class CheckpointError(ModelError):
    """Unreadable or inconsistent checkpoint file."""


class TrainingError(GutiError):
    """Training loop failure (bad config, empty corpus, non-finite grads)."""


class SamplingError(GutiError):
    """Invalid sampling configuration or fully-masked distribution."""


def check_counts(error: type[GutiError], minimum: int | None = None, **counts) -> None:
    """Raise ``error`` unless each count is an integer (a numpy one passes,
    a bool does not) and, when ``minimum`` is given, at least ``minimum``."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, not {value!r}")
        if minimum is not None and value < minimum:
            raise error(f"{name} must be >= {minimum}")
