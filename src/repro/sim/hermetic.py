"""A no-op kept for the e2e harness's import: every world numbers its own ids."""

from contextlib import nullcontext

hermetic_ids = nullcontext
