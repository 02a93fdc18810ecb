"""Exception types shared across the package."""


class InputError(ValueError):
    """Input outside an operation's contract: bad arity, unknown variable,
    multiplicities that the selected semantics mode does not admit, and so on.
    The command line maps this to exit status 2."""


class ParseError(InputError):
    """Syntax error in one of the text formats; carries line and column."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, column {col}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.col = col
