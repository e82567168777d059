"""Access to the shipped prompt template."""

from importlib import resources


def default_template() -> str:
    """The investigation system-prompt template shipped with the package."""
    path = resources.files("bictrace").joinpath("assets/investigation_prompt.txt")
    return path.read_text(encoding="utf-8")
