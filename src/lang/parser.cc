#include "lang/parser.hh"

#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lang/lexer.hh"
#include "lang/number.hh"
#include "support/text.hh"

namespace asim {

namespace {

/** Thesis `checkname`: letters and digits, starting with a letter. */
void
checkName(std::string_view name)
{
    if (!isValidName(name)) {
        throw SpecError("Error. Component name " + std::string(name) +
                        " invalid, use letters and numbers only.");
    }
}

class Parser
{
  public:
    Parser(std::string_view text, Diagnostics *diag)
        : lexer_(text), diag_(diag)
    {}

    Spec
    run()
    {
        reservePools();
        sink_ = &spec_.comps;
        readComment();
        token_ = lexer_.next();
        readMacros();
        readCycles();
        readDeclList();
        readComponents();
        int64_t cells = 0;
        for (const Component &c : spec_.comps) {
            cells += c.memSize;
            if (cells > kMaxSpecCells)
                tooManyCells(c.name);
        }
        return std::move(spec_);
    }

  private:
    /** Size the spec's arrays for the text. A generated spec spends
     *  about 10 bytes of text per term, 18 per expression and 60 per
     *  component and name; room for a somewhat denser text lets the
     *  arrays of a large spec fill without being copied as they grow,
     *  and capacity never filled is never touched. */
    void
    reservePools()
    {
        const size_t bytes = lexer_.size();
        spec_.termPool.reserve(bytes / 8);
        spec_.exprPool.reserve(bytes / 16);
        spec_.comps.reserve(bytes / 48);
        spec_.decls.reserve(bytes / 48);
        spec_.names.reserve(bytes / 48, bytes / 8);
    }

    void
    readComment()
    {
        std::string line = lexer_.readCommentLine();
        if (line.empty() || line[0] != '#')
            throw SpecError("Error. Comment required.");
        spec_.comment = line.substr(1);
    }

    void
    advance()
    {
        token_ = lexer_.next();
    }

    void
    readMacros()
    {
        // Macro definitions: '-name body' pairs. The name is read with
        // expansion off; the body with expansion on, so earlier macros
        // expand inside later bodies (no recursion possible).
        while (!token_.empty() && token_[0] == '-') {
            std::string name(token_.substr(1));
            checkName(name);
            lexer_.setExpandMacros(true);
            std::string_view body = lexer_.next();
            lexer_.setExpandMacros(false);
            if (body.empty())
                throw SpecError("Error. Macro " + name + " has no body.");
            lexer_.macros().define(name, body);
            advance();
        }
        // From here on every token undergoes ~name substitution.
        lexer_.setExpandMacros(true);
    }

    void
    readCycles()
    {
        if (token_ == "=") {
            advance();
            spec_.cycles = parseNumber(token_);
            spec_.cyclesSpecified = true;
            advance();
        }
    }

    void
    readDeclList()
    {
        while (token_ != ".") {
            if (token_.empty())
                throw SpecError("Error. Unexpected end of file in "
                                "declaration list.");
            std::string_view name = token_;
            DeclName d;
            if (name.size() > 1 && name.back() == '*') {
                name.remove_suffix(1);
                d.traced = true;
            }
            d.name = internName(name);
            spec_.decls.push_back(d);
            advance();
        }
        advance(); // consume '.'
    }

    /** The next token, which must exist; a view valid until the next
     *  lexer call. */
    std::string_view
    nextField(const char *what)
    {
        std::string_view t = lexer_.next();
        if (t.empty()) {
            throw SpecError(std::string("Error. Unexpected end of file "
                                        "reading ") + what + lastContext());
        }
        return t;
    }

    /** `name`, checked (checkName) and interned: one pass over its
     *  bytes checks and hashes it. */
    NameId
    internName(std::string_view name)
    {
        NameHash hash;
        bool valid = !name.empty() && isLetter(name[0]);
        for (char c : name) {
            valid = valid && (isLetter(c) || isDigit(c));
            hash.add(c);
        }
        if (!valid)
            checkName(name);
        return spec_.names.intern(name, hash.value());
    }

    /** The next token as a checked component name, interned. */
    NameId
    nextName(const char *what)
    {
        return internName(nextField(what));
    }

    Expr
    nextExpr(const char *what)
    {
        return parseExpr(nextField(what), spec_);
    }

    std::string
    lastContext() const
    {
        if (spec_.comps.empty())
            return std::string(".");
        return " (last component read is <" +
               std::string(spec_.name(spec_.comps.back().name)) + ">).";
    }

    void
    readComponents()
    {
        while (token_ != ".") {
            if (token_.size() != 1 ||
                (token_ != "A" && token_ != "S" && token_ != "M" &&
                 token_ != "D" && token_ != "U")) {
                throw SpecError("Error. Component expected. Got <" +
                                std::string(token_) + "> instead" +
                                lastContext());
            }
            if (token_ == "A")
                readAlu();
            else if (token_ == "S")
                readSelector();
            else if (token_ == "M")
                readMemory();
            else if (token_ == "D")
                readModuleDef();
            else
                readModuleUse();
        }
    }

    /** A module template: ports plus body components, whose
     *  expressions live in the spec's pools like any other. */
    struct Module
    {
        std::vector<NameId> ports;
        std::vector<Component> body;
    };

    void
    readModuleDef()
    {
        std::string name(nextField("module name"));
        checkName(name);
        if (modules_.count(name)) {
            throw SpecError("Error. Module " + name +
                            " defined twice.");
        }
        Module mod;
        advance();
        while (token_ != ".") {
            if (token_.empty()) {
                throw SpecError("Error. Unexpected end of file in "
                                "module " + name + " port list.");
            }
            mod.ports.push_back(internName(token_));
            advance();
        }
        // Body: ordinary components until 'E'. Parse into a side list
        // by temporarily swapping the component sink.
        advance();
        std::vector<Component> *outer = sink_;
        sink_ = &mod.body;
        while (token_ != "E") {
            if (token_.empty()) {
                sink_ = outer;
                throw SpecError("Error. Module " + name +
                                " not terminated with E.");
            }
            if (token_ == "A") {
                readAlu();
            } else if (token_ == "S") {
                readSelector();
            } else if (token_ == "M") {
                readMemory();
            } else {
                sink_ = outer;
                throw SpecError("Error. Component expected in module " +
                                name + ". Got <" + std::string(token_) +
                                ">.");
            }
        }
        sink_ = outer;
        advance(); // past 'E'
        modules_.emplace(std::move(name), std::move(mod));
    }

    void
    readModuleUse()
    {
        std::string inst(nextField("instance name"));
        checkName(inst);
        std::string modName(nextField("module name"));
        auto it = modules_.find(modName);
        if (it == modules_.end()) {
            throw SpecError("Error. Module <" + modName +
                            "> not found.");
        }
        const Module &mod = it->second;

        // One actual per port.
        std::unordered_map<NameId, NameId> rename;
        for (NameId port : mod.ports)
            rename[port] = nextName("module actual");
        // Internal components get instance-prefixed names.
        for (const auto &c : mod.body) {
            if (!rename.count(c.name)) {
                rename[c.name] = spec_.names.intern(
                    inst + std::string(spec_.name(c.name)));
            }
        }
        auto mapName = [&](NameId n) {
            auto rit = rename.find(n);
            return rit == rename.end() ? n : rit->second;
        };

        // Expanded names join the declaration list untraced unless the
        // user already declared them. The declared-name set is filled
        // at the first module use (specs without modules never pay for
        // it) and kept complete from then on.
        if (declared_.empty()) {
            for (const auto &d : spec_.decls)
                declared_.insert(d.name);
        }
        for (const Component &tmpl : mod.body) {
            exprs_.clear();
            for (uint32_t i = 0; i < tmpl.numExprs; ++i) {
                // Copy by index: appending may move the term array.
                const Expr src = spec_.expr(tmpl, i);
                Expr e{static_cast<uint32_t>(spec_.termPool.size()),
                       src.count};
                for (uint32_t k = 0; k < src.count; ++k) {
                    Term t = spec_.termPool[src.first + k];
                    if (t.kind == Term::Kind::Ref)
                        t.ref = mapName(t.ref);
                    spec_.termPool.push_back(t);
                }
                exprs_.push_back(e);
            }
            const NameId name = mapName(tmpl.name);
            // A copy: pooling the new component may move the init array.
            inits_.assign(spec_.init(tmpl).begin(), spec_.init(tmpl).end());
            sink_->push_back(spec_.makeComponent(tmpl.kind, name, exprs_,
                                                 tmpl.memSize, inits_));
            if (declared_.insert(name).second)
                spec_.decls.push_back(DeclName{name, false});
        }
        advance();
    }

    /** Append a parsed component to the current sink. */
    void
    emit(CompKind kind, NameId name, int64_t memSize = 0)
    {
        sink_->push_back(
            spec_.makeComponent(kind, name, exprs_, memSize, inits_));
    }

    void
    readAlu()
    {
        const NameId name = nextName("ALU name");
        exprs_.clear();
        inits_.clear();
        exprs_.push_back(nextExpr("ALU function"));
        exprs_.push_back(nextExpr("ALU left operand"));
        exprs_.push_back(nextExpr("ALU right operand"));
        emit(CompKind::Alu, name);
        advance();
    }

    void
    readSelector()
    {
        const NameId name = nextName("selector name");
        exprs_.clear();
        inits_.clear();
        exprs_.push_back(nextExpr("selector index"));
        // Case values run until the next component or module letter,
        // a module body's 'E', or the final '.'.
        advance();
        while (token_ != ".") {
            if (token_.size() == 1 &&
                (token_ == "A" || token_ == "S" || token_ == "M" ||
                 token_ == "D" || token_ == "U" || token_ == "E")) {
                break;
            }
            if (token_.empty()) {
                throw SpecError("Error. Unexpected end of file in "
                                "selector " + std::string(spec_.name(name)) +
                                " case list.");
            }
            exprs_.push_back(parseExpr(token_, spec_));
            advance();
        }
        if (exprs_.size() == 1) {
            throw SpecError("Error. Selector " +
                            std::string(spec_.name(name)) +
                            " has no case values.");
        }
        emit(CompKind::Selector, name);
    }

    [[noreturn]] void
    tooManyCells(NameId name) const
    {
        throw SpecError("Error. Memory " + std::string(spec_.name(name)) +
                        " takes the specification past its bound of " +
                        std::to_string(kMaxSpecCells) + " cells.");
    }

    void
    readMemory()
    {
        const NameId name = nextName("memory name");
        exprs_.clear();
        inits_.clear();
        exprs_.push_back(nextExpr("memory address"));
        exprs_.push_back(nextExpr("memory data"));
        exprs_.push_back(nextExpr("memory operation"));
        int64_t n = parseSignedNumber(nextField("memory size"));
        if (n == 0) {
            throw SpecError("Error. Memory " +
                            std::string(spec_.name(name)) +
                            " has zero cells.");
        }
        const int64_t size = n < 0 ? -n : n;
        if (size > kMaxSpecCells)
            tooManyCells(name);
        if (n < 0) {
            // Negative size: exactly |n| initial values follow.
            // A value may carry a '-': the writer's decimal form of a
            // value that wrapped negative (`$FFFFFFFF`).
            for (int64_t i = 0; i < size; ++i) {
                inits_.push_back(
                    parseConstant(nextField("memory initial value")));
            }
        }
        emit(CompKind::Memory, name, size);
        advance();
    }

    Lexer lexer_;
    Diagnostics *diag_;
    Spec spec_;
    std::string_view token_;

    /** The component being read: its expressions and initial values,
     *  reused from one component to the next. */
    std::vector<Expr> exprs_;
    std::vector<int32_t> inits_;

    /** Where parsed components go: the spec, or a module body. */
    std::vector<Component> *sink_ = nullptr;

    /** Module templates (§5.4 modularity extension). */
    std::map<std::string, Module> modules_;

    /** Every name on spec_.decls once a module is used, so module
     *  expansion's auto-declare is one probe per expanded component. */
    std::unordered_set<NameId> declared_;
};

} // namespace

const Component *
Spec::find(std::string_view name) const
{
    const NameId id = names.find(name);
    if (id == kNoName)
        return nullptr;
    for (const auto &c : comps) {
        if (c.name == id)
            return &c;
    }
    return nullptr;
}

Component *
Spec::find(std::string_view name)
{
    return const_cast<Component *>(std::as_const(*this).find(name));
}

Expr
Spec::addExpr(std::span<const Term> terms)
{
    Expr e{static_cast<uint32_t>(termPool.size()),
           static_cast<uint32_t>(terms.size())};
    termPool.insert(termPool.end(), terms.begin(), terms.end());
    return e;
}

Component
Spec::makeComponent(CompKind kind, NameId name, std::span<const Expr> exprs,
                    int64_t memSize, std::span<const int32_t> init)
{
    Component c;
    c.kind = kind;
    c.name = name;
    c.firstExpr = static_cast<uint32_t>(exprPool.size());
    c.numExprs = static_cast<uint32_t>(exprs.size());
    exprPool.insert(exprPool.end(), exprs.begin(), exprs.end());
    c.memSize = memSize;
    c.firstInit = static_cast<uint32_t>(initPool.size());
    c.numInit = static_cast<uint32_t>(init.size());
    initPool.insert(initPool.end(), init.begin(), init.end());
    return c;
}

char
compKindLetter(CompKind kind)
{
    switch (kind) {
      case CompKind::Alu:
        return 'A';
      case CompKind::Selector:
        return 'S';
      case CompKind::Memory:
        return 'M';
    }
    return '?';
}

Spec
parseSpec(std::string_view text, Diagnostics *diag)
{
    return Parser(text, diag).run();
}

Spec
parseSpecFile(const std::string &path, Diagnostics *diag)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SpecError("Error. Cannot open file " + path + ".");
    std::ostringstream os;
    os << in.rdbuf();
    return parseSpec(os.str(), diag);
}

} // namespace asim
