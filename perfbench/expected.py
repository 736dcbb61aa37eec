"""Paper facts the benchmark checks answers against, written out by hand.

None of this is read from the package's catalog file, so an edit to the
catalog cannot make a wrong answer pass.
"""

#: Representative id -> the divisibility assumption div of its table row.
DIVISIBILITY = {
    "1a": 360, "1b": 840, "1c": 20, "1d": 60, "1g": 6, "2a": 24,
    "2b": 12, "2e": 12, "3d": 2, "11": 120, "12": 2,
}

#: Representative id -> maximal Mordell-Weil rank, reached at every n with div | n.
MAX_RANK = {
    "1a": 68, "1b": 56, "1c": 9, "1d": 18, "1g": 4, "2a": 24,
    "2b": 3, "2e": 6, "3d": 1, "11": 18, "12": 0,
}

#: Representative id -> (slope, const): lambda(n) = slope * n + const when div | n.
LAMBDA_FORM = {
    "1a": (2, -72), "1b": (3, -60), "1c": (3, -12), "1d": (2, -22),
    "1g": (2, -8), "2a": (2, -28), "2b": (1, -6), "2e": (2, -10),
    "3d": (3, -4), "11": (1, -22), "12": (1, -2),
}

TABLE_ROWS = 42
GLOBAL_MAX_RANK = 68
#: The worked example: family 1d at n = 60.
WORKED_EXAMPLE = {"family": "1d", "n": 60, "lambda": 98, "rank": 18}
CENSUS_CLASSES = 16
CENSUS_AT_MOST_4_CORNERS = 12


def closed_form_lambda(rep, n):
    """The paper's lambda(n), or None when div does not divide n."""
    if n % DIVISIBILITY[rep]:
        return None
    slope, const = LAMBDA_FORM[rep]
    return slope * n + const


def census_ok(payload):
    """True iff a `census --json` payload has the paper's 16 classes, 12 with <= 4 corners."""
    classes = payload["classes"]
    small = sum(1 for cls in classes if len(cls["vertices"]) <= 4)
    return len(classes) == CENSUS_CLASSES and small == CENSUS_AT_MOST_4_CORNERS
