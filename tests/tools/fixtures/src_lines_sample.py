"""Module docstring: two physical lines,
none of them code."""

# A comment-only line.
import os  # trailing comments do not matter: 1

#: An attribute comment.
LIMIT = 3  # 2


class Sample:
    """Class docstring."""

    label = "a string that is data, not a docstring"  # 4 (3 is the class line)

    def method(
        self,
        value,
    ):  # 5-8: a wrapped signature counts every line it spans
        """Method docstring.

        With a blank line inside.
        """
        # comment between statements
        text = """a multi-line
        string expression assigned
        to a name"""  # 9-11
        return os.sep.join(
            [text, str(value)]
        )  # 12-14


def bare():
    "single-quoted docstring"  # 15 is the def line; this is no code
    pass  # 16
