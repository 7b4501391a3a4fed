#include "lang/lexer.hh"

#include <array>
#include <cstdint>

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

namespace {

/** True for the bytes a token cannot hold: whitespace and '{'. */
constexpr bool
endsToken(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '{';
}

/** Per byte: kEnd if it ends a token, kMacro if it is the `~` that
 *  starts a macro reference. One load and test per byte of a token. */
constexpr uint8_t kEnd = 1, kMacro = 2;
constexpr std::array<uint8_t, 256> kStops = [] {
    std::array<uint8_t, 256> t{};
    for (int c = 0; c < 256; ++c) {
        if (endsToken(static_cast<char>(c)))
            t[c] = kEnd;
    }
    t['~'] = kMacro;
    return t;
}();

} // namespace

void
Lexer::skipWhitespace()
{
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '{') {
            // Comment: skip to matching '}' (no nesting, per thesis).
            while (pos_ < text_.size() && text_[pos_] != '}')
                advanceOne();
            if (pos_ < text_.size())
                advanceOne(); // the '}'
        } else if (endsToken(c)) {
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
    // meets a `~`, from which on it is built in expanded_. A token
    // holds no newline, so only whitespace moves the line count.
    const size_t start = pos_;
    const uint8_t stops = expand_ ? kEnd | kMacro : kEnd;
    bool expanding = false;
    while (true) {
        const size_t run = pos_;
        while (pos_ < text_.size() &&
               !(kStops[static_cast<uint8_t>(text_[pos_])] & stops))
            ++pos_;
        if (expanding)
            expanded_.append(text_.substr(run, pos_ - run));
        if (pos_ == text_.size() || endsToken(text_[pos_]))
            break;
        if (!expanding) {
            expanded_.assign(text_.substr(start, pos_ - start));
            expanding = true;
        }
        expandMacro();
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
