"""Fuzz the parsers where input enters: each input either parses or raises
ValueError or a DesignForgeError, never any other exception.

Design headers declare at most 12 points. Generator file headers declare
at most 12 points or more than the parser's degree limit, which it must
reject before allocating anything of that length.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from designforge.design import read_design
from designforge.errors import DesignForgeError
from designforge.perm import MAX_FILE_DEGREE, parse_cycle_string, read_generator_file

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["design", "degree", "img:", "#", "()", "(1,2)", "(1,2,3)(4,5)", "(0)", "(1,,2)", "1.5", "-", "x"]
    ),
)
LINE = st.lists(TOKENS, max_size=6).map(" ".join)
# free text has no letters, so it can never spell a header
TEXT = st.one_of(
    st.lists(LINE, max_size=8).map("\n".join),
    st.text(alphabet="0123456789(),:#- \t\n", max_size=60),
)
CONTENT = st.one_of(TEXT.map(str.encode), st.binary(max_size=40))


def _parses_or_rejects(parse, *args):
    try:
        parse(*args)
    except (ValueError, DesignForgeError):
        pass


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.tuples(st.just("design"), st.integers(-1, 12), st.integers(-1, 12), LINE, TEXT).map(
    lambda t: "%s %d %d\n%s\n%s" % t).map(str.encode), CONTENT))
def test_read_design_fuzz(scratch_file, content):
    scratch_file.write_bytes(content)
    _parses_or_rejects(read_design, scratch_file)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.tuples(st.integers(0, 12) | st.integers(MAX_FILE_DEGREE + 1, 10**30), TEXT).map(
    lambda t: "degree %d\n%s" % t).map(str.encode), CONTENT))
def test_read_generator_file_fuzz(scratch_file, content):
    scratch_file.write_bytes(content)
    _parses_or_rejects(read_generator_file, scratch_file)


@settings(max_examples=300, deadline=None)
@given(st.one_of(LINE, TEXT), st.integers(-1, 12))
def test_parse_cycle_string_fuzz(s, degree):
    _parses_or_rejects(parse_cycle_string, s, degree)
