"""The regex lexer against the character-loop reference.

``tokenize`` lexes ASCII sources with one master regex and keeps the
character loop for other text.  Both must produce the reference's token
stream -- kind, text, line, column -- and, on malformed input, the same
``LexError`` message, line and column.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.batch.corpus import corpus_jobs
from repro.bench.progen import ProgramConfig, generate_program
from repro.lang.lexer import LexError, tokenize
from tests.lang.reference_lexer import reference_tokenize

#: Fragments that start, end or break every token class, comment and
#: error path of the lexer.
ASCII_PIECES = [
    " ", "\t", "\r", "\n", "\r\n", "\f", "\v",
    "0", "7", "42", "007", "x", "_", "_a1", "int", "while", "return",
    "if", "else", "void", "assert", "intx", "Q9",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "(", ")", "{", "}",
    "[", "]", ";", ",", "<=", ">=", "==", "!=", "&&", "||", "&", "|",
    "//", "/*", "*/", "/**/", "/*/", "// c\n", "/* a\nb */",
    "@", "#", "$", "'", '"', ".", "^", "~", ":", "?", "\\", "`", "\x00",
    "\x7f",
]
#: Characters outside ASCII that ``str.isdigit``/``isalpha``/``isalnum``
#: accept, and some they do not.
OTHER_PIECES = ["é", "ß", "²", "٣", "Ⅻ", "ℌ", "µ", " ", "→", "😀"]


def outcome(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as err:
        return ("error", str(err), err.line, err.col)


def assert_same(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ASCII_PIECES), max_size=30).map("".join))
def test_ascii_fragments_lex_like_the_reference(source):
    assert_same(source)


@settings(max_examples=300)
@given(
    st.lists(
        st.sampled_from(ASCII_PIECES + OTHER_PIECES), min_size=1, max_size=30
    ).map("".join)
)
def test_mixed_fragments_lex_like_the_reference(source):
    assert_same(source)


@given(st.text(max_size=40))
def test_arbitrary_text_lexes_like_the_reference(source):
    assert_same(source)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
def test_arbitrary_ascii_text_lexes_like_the_reference(source):
    assert_same(source)


def test_non_ascii_letters_and_digits_lex_as_before():
    # The character loop treats them as letters and digits; a regex over
    # [0-9A-Za-z] would reject them.
    for source in ("int é;", "x = ²;", "int ab٣ = 1;", "1ß"):
        assert_same(source)
    assert [t.text for t in tokenize("int é;")] == ["int", "é", ";", ""]


def test_corpus_sources_lex_like_the_reference():
    for source in {job.source for job in corpus_jobs()}:
        assert_same(source)


def test_generated_sources_lex_like_the_reference():
    for seed in range(12):
        source = generate_program(ProgramConfig(seed=seed, global_arrays=1))
        assert_same(source)
        # The same program with other line endings and a stray error.
        assert_same(source.replace("\n", "\r\n"))
        assert_same(source + "\n  @")
        assert_same(source + "\n/* open")
