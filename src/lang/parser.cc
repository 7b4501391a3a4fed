#include "lang/parser.hh"

#include <fstream>
#include <map>
#include <sstream>
#include <unordered_set>

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
                tooManyCells(c);
        }
        return std::move(spec_);
    }

  private:
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
            std::string name = token_.substr(1);
            checkName(name);
            lexer_.setExpandMacros(true);
            std::string body = lexer_.next();
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
            DeclName d;
            if (token_.size() > 1 && token_.back() == '*') {
                d.name = token_.substr(0, token_.size() - 1);
                d.traced = true;
            } else {
                d.name = token_;
            }
            checkName(d.name);
            spec_.decls.push_back(std::move(d));
            advance();
        }
        advance(); // consume '.'
    }

    std::string
    nextField(const char *what)
    {
        std::string t = lexer_.next();
        if (t.empty()) {
            throw SpecError(std::string("Error. Unexpected end of file "
                                        "reading ") + what + lastContext());
        }
        return t;
    }

    std::string
    lastContext() const
    {
        if (spec_.comps.empty())
            return std::string(".");
        return " (last component read is <" + spec_.comps.back().name +
               ">).";
    }

    void
    readComponents()
    {
        while (token_ != ".") {
            if (token_.size() != 1 ||
                (token_ != "A" && token_ != "S" && token_ != "M" &&
                 token_ != "D" && token_ != "U")) {
                throw SpecError("Error. Component expected. Got <" +
                                token_ + "> instead" + lastContext());
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

    /** A module template: ports plus body components. */
    struct Module
    {
        std::vector<std::string> ports;
        std::vector<Component> body;
    };

    void
    readModuleDef()
    {
        std::string name = nextField("module name");
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
            checkName(token_);
            mod.ports.push_back(token_);
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
                                name + ". Got <" + token_ + ">.");
            }
        }
        sink_ = outer;
        advance(); // past 'E'
        modules_.emplace(std::move(name), std::move(mod));
    }

    void
    readModuleUse()
    {
        std::string inst = nextField("instance name");
        checkName(inst);
        std::string modName = nextField("module name");
        auto it = modules_.find(modName);
        if (it == modules_.end()) {
            throw SpecError("Error. Module <" + modName +
                            "> not found.");
        }
        const Module &mod = it->second;

        // One actual per port.
        std::map<std::string, std::string> rename;
        for (const auto &port : mod.ports) {
            std::string actual = nextField("module actual");
            checkName(actual);
            rename[port] = actual;
        }
        // Internal components get instance-prefixed names.
        for (const auto &c : mod.body) {
            if (!rename.count(c.name))
                rename[c.name] = inst + c.name;
        }

        auto mapName = [&](const std::string &n) {
            auto rit = rename.find(n);
            return rit == rename.end() ? n : rit->second;
        };
        auto mapExpr = [&](Expr e) {
            for (auto &t : e.terms) {
                if (t.kind == Term::Kind::Ref)
                    t.ref = mapName(t.ref);
            }
            return e;
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
            Component c = tmpl;
            c.name = mapName(tmpl.name);
            c.funct = mapExpr(tmpl.funct);
            c.left = mapExpr(tmpl.left);
            c.right = mapExpr(tmpl.right);
            c.select = mapExpr(tmpl.select);
            for (auto &e : c.cases)
                e = mapExpr(e);
            c.addr = mapExpr(tmpl.addr);
            c.data = mapExpr(tmpl.data);
            c.opn = mapExpr(tmpl.opn);
            if (declared_.insert(c.name).second)
                spec_.decls.push_back(DeclName{c.name, false});
            sink_->push_back(std::move(c));
        }
        advance();
    }

    void
    readAlu()
    {
        Component c;
        c.kind = CompKind::Alu;
        c.name = nextField("ALU name");
        checkName(c.name);
        c.funct = parseExpr(nextField("ALU function"));
        c.left = parseExpr(nextField("ALU left operand"));
        c.right = parseExpr(nextField("ALU right operand"));
        sink_->push_back(std::move(c));
        advance();
    }

    void
    readSelector()
    {
        Component c;
        c.kind = CompKind::Selector;
        c.name = nextField("selector name");
        checkName(c.name);
        c.select = parseExpr(nextField("selector index"));
        // Case values run until the next component letter or final '.'.
        advance();
        while (true) {
            if (token_ == ".")
                break;
            if (token_.size() == 1 &&
                (token_ == "A" || token_ == "S" || token_ == "M")) {
                break;
            }
            if (token_.empty()) {
                throw SpecError("Error. Unexpected end of file in "
                                "selector " + c.name + " case list.");
            }
            c.cases.push_back(parseExpr(token_));
            advance();
        }
        if (c.cases.empty()) {
            throw SpecError("Error. Selector " + c.name +
                            " has no case values.");
        }
        sink_->push_back(std::move(c));
    }

    [[noreturn]] static void
    tooManyCells(const Component &c)
    {
        throw SpecError("Error. Memory " + c.name +
                        " takes the specification past its bound of " +
                        std::to_string(kMaxSpecCells) + " cells.");
    }

    void
    readMemory()
    {
        Component c;
        c.kind = CompKind::Memory;
        c.name = nextField("memory name");
        checkName(c.name);
        c.addr = parseExpr(nextField("memory address"));
        c.data = parseExpr(nextField("memory data"));
        c.opn = parseExpr(nextField("memory operation"));
        int64_t n = parseSignedNumber(nextField("memory size"));
        if (n == 0) {
            throw SpecError("Error. Memory " + c.name +
                            " has zero cells.");
        }
        c.memSize = n < 0 ? -n : n;
        if (c.memSize > kMaxSpecCells)
            tooManyCells(c);
        if (n < 0) {
            // Negative size: exactly |n| initial values follow.
            // A value may carry a '-': the writer's decimal form of a
            // value that wrapped negative (`$FFFFFFFF`).
            for (int64_t i = 0; i < c.memSize; ++i) {
                c.init.push_back(
                    parseConstant(nextField("memory initial value")));
            }
        }
        sink_->push_back(std::move(c));
        advance();
    }

    Lexer lexer_;
    Diagnostics *diag_;
    Spec spec_;
    std::string token_;

    /** Where parsed components go: the spec, or a module body. */
    std::vector<Component> *sink_ = nullptr;

    /** Module templates (§5.4 modularity extension). */
    std::map<std::string, Module> modules_;

    /** Every name on spec_.decls once a module is used, so module
     *  expansion's auto-declare is one probe per expanded component. */
    std::unordered_set<std::string> declared_;
};

} // namespace

const Component *
Spec::find(std::string_view name) const
{
    for (const auto &c : comps) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

Component *
Spec::find(std::string_view name)
{
    for (auto &c : comps) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
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
