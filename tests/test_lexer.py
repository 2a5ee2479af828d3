"""The regular-expression lexer against the character-loop lexer it replaced."""

import pytest
from hypothesis import example, given, settings, strategies as st

from catq.parser import SourceSpan, Token, lex
from reference_lexer import lex as reference_lex

# lexemes and characters where the two lexers could part ways: line ends,
# comments, strings cut by a newline or the end of text, signs and arrows,
# and non-ASCII characters on which `\w`/`\d` and `str.isalpha`/`isdigit`
# disagree (`²` is a digit but not decimal, `½` is alphanumeric but no
# letter, `٣` is a decimal digit, `一` is both a letter and numeric)
PIECES = [" ", "\t", "\r", "\n", "\r\n", "//", "/", '"', '"x"', "-", "-1.2.3", "->", ".",
          "1", "09", "a", "Z", "_", "é", "²", "½", "٣", "一", "ⅻ", "{", "}", "(", ")", ":",
          ",", "=", "@", "#", "\\", "\x0b", " ", "\x00"]

texts = st.one_of(st.lists(st.sampled_from(PIECES), max_size=40).map("".join), st.text(max_size=40))


def fields(span):
    return span.file, span.line, span.col, span.end_line, span.end_col


@settings(max_examples=500)
@given(texts)
@example("")
@example('x "abc\n-1.2.3 -> - // c')
@example("a²½ ²1 ½ ٣٣ 一")
@example("x // trailing comment")
def test_lex_matches_the_character_loop(text):
    tokens, diags = lex(text, "f.catq")
    ref_tokens, ref_diags = reference_lex(text, "f.catq")
    assert [(t.kind, t.text, fields(t.span)) for t in tokens] == \
        [(t.kind, t.text, fields(t.span)) for t in ref_tokens]
    assert [(d.severity, d.code, d.message, fields(d.span)) for d in diags] == \
        [(d.severity, d.code, d.message, fields(d.span)) for d in ref_diags]


def test_tokens_and_spans_are_immutable_values():
    span = SourceSpan("f", 1, 2, 1, 5)
    assert str(span) == "f:1:2"
    assert span.to(SourceSpan("f", 3, 1, 3, 4)) == SourceSpan("f", 1, 2, 3, 4)
    tok = Token("ident", "abc", span)
    assert tok == Token("ident", "abc", SourceSpan("f", 1, 2, 1, 5))
    assert hash(tok) == hash(Token("ident", "abc", SourceSpan("f", 1, 2, 1, 5)))
    assert repr(span) == "SourceSpan(file='f', line=1, col=2, end_line=1, end_col=5)"
    with pytest.raises(AttributeError):
        span.line = 3
