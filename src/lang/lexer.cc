#include "lang/lexer.hh"

#include "support/logging.hh"
#include "support/text.hh"

namespace asim {

Lexer::Lexer(std::string_view text)
    : text_(text)
{}

std::string
Lexer::readCommentLine()
{
    std::string line;
    while (pos_ < text_.size() && text_[pos_] != '\n')
        line += text_[pos_++];
    if (pos_ < text_.size()) {
        ++pos_;
        ++line_;
    }
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return line;
}

bool
Lexer::isWhitespace(char c) const
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

void
Lexer::skipWhitespace()
{
    while (pos_ < text_.size()) {
        char c = text_[pos_];
        if (c == '{') {
            // Comment: skip to matching '}' (no nesting, per thesis).
            while (pos_ < text_.size() && text_[pos_] != '}')
                advanceOne();
            if (pos_ < text_.size())
                advanceOne(); // the '}'
        } else if (isWhitespace(c)) {
            advanceOne();
        } else {
            break;
        }
    }
}

void
Lexer::expandMacro()
{
    advanceOne(); // the '~'
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (isLetter(text_[pos_]) || isDigit(text_[pos_]))) {
        advanceOne();
    }
    const std::string &body =
        macros_.lookup(text_.substr(start, pos_ - start));
    if (expanded_.size() + body.size() > kMaxTokenBytes) {
        throw SpecError("Error. Macro expansion makes a token longer "
                        "than " + std::to_string(kMaxTokenBytes) +
                        " characters (line " + std::to_string(line_) +
                        ").");
    }
    expanded_ += body;
}

std::string_view
Lexer::next()
{
    if (pendingDot_) {
        pendingDot_ = false;
        return ".";
    }

    skipWhitespace();
    tokenLine_ = line_;

    // Scan the raw token; it is a view of the text unless expansion
    // meets a `~`, from which on it is built in expanded_.
    const size_t start = pos_;
    bool expanding = false;
    while (pos_ < text_.size()) {
        char c = text_[pos_];
        if (isWhitespace(c) || c == '{')
            break;
        if (expand_ && c == '~') {
            if (!expanding) {
                expanded_.assign(text_.substr(start, pos_ - start));
                expanding = true;
            }
            expandMacro();
        } else {
            if (expanding)
                expanded_ += c;
            advanceOne();
        }
    }
    std::string_view token =
        expanding ? std::string_view(expanded_)
                  : text_.substr(start, pos_ - start);

    // Split a trailing '.' off multi-character tokens, but keep
    // intermediate dots (subfields) intact: "count." -> "count", ".".
    if (token.size() > 1 && token.back() == '.') {
        token.remove_suffix(1);
        pendingDot_ = true;
    }
    return token;
}

} // namespace asim
