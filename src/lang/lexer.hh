/**
 * @file
 * Token scanner for ASIM II specifications (thesis `gettoken`).
 *
 * Tokens are maximal runs of non-whitespace characters. Whitespace is
 * blank, tab, CR, LF; `{ ... }` comments act as whitespace anywhere
 * (nesting is not supported, matching the thesis). A trailing `.` on a
 * token longer than one character is split off as its own token (this
 * is how `count.` ends the declaration list while `count.3` stays one
 * token — the thesis splits the final '.' and the parser relies on it).
 * Macro references `~name` are substituted in place when expansion is
 * enabled.
 *
 * Tokens are views: into the text for a token without a macro
 * reference, into the lexer's one expansion buffer otherwise. Either
 * stays valid until the next call to next().
 */

#ifndef ASIM_LANG_LEXER_HH
#define ASIM_LANG_LEXER_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "lang/macro.hh"

namespace asim {

/** The longest token macro expansion may build. A token is one name,
 *  number or expression, and a 31-bit expression needs a few hundred
 *  characters at most; but macro bodies expand at definition time, so
 *  n definitions that each double the last (`-m2 ~m1~m1`) ask for a
 *  2^n-byte token and would exhaust memory instead of failing. */
inline constexpr size_t kMaxTokenBytes = size_t{1} << 16;

/** Streaming tokenizer over a whole specification text. */
class Lexer
{
  public:
    /** Scan `text`, which is borrowed: it must outlive the lexer. */
    explicit Lexer(std::string_view text);

    /** Read the mandatory first line (the `#` comment). Must be called
     *  before the first next(). Returns the raw line. */
    std::string readCommentLine();

    /** Next token; empty at end of input.
     *  @throws SpecError on an undefined macro or an expansion longer
     *  than kMaxTokenBytes */
    std::string_view next();

    /** Enable/disable `~name` macro substitution (the thesis disables
     *  it while reading a macro definition's name). */
    void setExpandMacros(bool on) { expand_ = on; }

    /** The macro table used for substitution. */
    MacroTable &macros() { return macros_; }
    const MacroTable &macros() const { return macros_; }

    /** Bytes of text scanned in all. */
    size_t size() const { return text_.size(); }

    /** 1-based line number of the most recently returned token. */
    int line() const { return tokenLine_; }

  private:
    void skipWhitespace();

    /** Consume one character, maintaining the line counter. */
    void
    advanceOne()
    {
        if (pos_ < text_.size() && text_[pos_] == '\n')
            ++line_;
        ++pos_;
    }

    /** Append the expansion of the `~name` at pos_ to expanded_. */
    void expandMacro();

    std::string_view text_;
    std::string expanded_;
    size_t pos_ = 0;
    int line_ = 1;
    int tokenLine_ = 1;
    bool expand_ = false;
    MacroTable macros_;

    /** Pending `.` split off the previous token. */
    bool pendingDot_ = false;
};

} // namespace asim

#endif // ASIM_LANG_LEXER_HH
