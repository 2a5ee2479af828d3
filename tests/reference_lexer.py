"""The character-loop lexer that `catq.parser.lex` replaced, kept as a test reference.

It walks the text one character at a time, classifying with `str.isdigit`,
`str.isalpha` and `str.isalnum` and trying each `PUNCTUATION` entry in
turn. `test_lexer.py` checks that the regular-expression lexer returns the
same tokens, spans and diagnostics on arbitrary text.
"""

from catq.parser import EOF, IDENT, NUMBER, PUNCT, PUNCTUATION, STRING, Diagnostic, SourceSpan, Token


def lex(text: str, filename: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def span(l, c, l2, c2):
        return SourceSpan(filename, l, c, l2, c2)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_l, start_c = line, col
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"' and text[j] != "\n":
                buf.append(text[j])
                j += 1
            closed = j < n and text[j] == '"'
            if not closed:
                diags.append(Diagnostic("error", "SyntaxError", "unterminated string literal",
                                        span(start_l, start_c, line, col + (j - i))))
            # an unterminated literal stops before the newline, which the main loop counts
            width = j - i + 1 if closed else j - i
            tokens.append(Token(STRING, "".join(buf), span(start_l, start_c, line, start_c + width)))
            col += width
            i += width
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            word = text[i:j]
            tokens.append(Token(NUMBER, word, span(start_l, start_c, line, start_c + len(word))))
            col += len(word)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(IDENT, word, span(start_l, start_c, line, start_c + len(word))))
            col += len(word)
            i = j
            continue
        matched = None
        for p in PUNCTUATION:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token(PUNCT, matched, span(start_l, start_c, line, start_c + len(matched))))
            col += len(matched)
            i += len(matched)
            continue
        diags.append(Diagnostic("error", "SyntaxError", f"unexpected character {ch!r}",
                                span(start_l, start_c, line, start_c + 1)))
        i += 1
        col += 1
    tokens.append(Token(EOF, "", span(line, col, line, col)))
    return tokens, diags
