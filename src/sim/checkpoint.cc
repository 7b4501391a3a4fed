#include "sim/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/serialize.hh"

namespace asim {

namespace {

/** Sanity ceilings for counts that drive allocations. Far above any
 *  real specification, far below anything that could exhaust memory
 *  off a bit-flipped count (counts are additionally validated
 *  against the bytes actually present — ByteReader::count()). */
constexpr uint64_t kMaxVars = 1u << 24;
constexpr uint64_t kMaxMems = 1u << 20;
constexpr uint64_t kMaxCells = 1u << 28;
constexpr uint64_t kMaxNameLen = 1u << 12;

/** One past the highest known section tag. */
constexpr uint32_t kSectionTagEnd =
    static_cast<uint32_t>(CheckpointSection::Session) + 1;

void
writeSection(ByteWriter &w, CheckpointSection tag, std::string_view data)
{
    w.u32(static_cast<uint32_t>(tag));
    w.str(data);
}

/** Decode the v2 section list: a u32 count, then per section a u32
 *  tag and a str payload. Unknown and repeated tags are refused. */
CheckpointSections
readSections(ByteReader &body)
{
    CheckpointSections out;
    uint32_t count = body.u32("section count");
    if (count >= kSectionTagEnd)
        body.fail("section count " + std::to_string(count) +
                  " exceeds the known section tags");
    bool seen[kSectionTagEnd] = {};
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t tag = body.u32("section tag");
        if (tag == 0 || tag >= kSectionTagEnd)
            body.fail("unknown section tag " + std::to_string(tag));
        if (seen[tag])
            body.fail("duplicate section tag " + std::to_string(tag));
        seen[tag] = true;
        std::string data = body.str("section payload");
        switch (static_cast<CheckpointSection>(tag)) {
        case CheckpointSection::Output:
            out.output = std::move(data);
            break;
        case CheckpointSection::Trace:
            out.trace = std::move(data);
            break;
        case CheckpointSection::Done:
            if (data.size() != 1 || static_cast<uint8_t>(data[0]) > 1)
                body.fail("malformed completion section");
            out.done = true;
            out.watchpointHit = data[0] == 1;
            break;
        case CheckpointSection::Session:
            out.session = std::move(data);
            break;
        }
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SimError("cannot read checkpoint " + path);
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        throw SimError("cannot read checkpoint " + path);
    return os.str();
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::string
encodeCheckpoint(const EngineSnapshot &snap, uint64_t specHash,
                 std::string_view savedBy,
                 const CheckpointSections &sections)
{
    ByteWriter w;
    w.bytes(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(specHash);
    w.str(savedBy);
    w.u64(snap.cycle);
    w.u64(snap.ioValues);

    const SimStats &st = snap.stats;
    w.u64(st.cycles);
    w.u64(st.aluEvals);
    w.u64(st.selEvals);
    w.u64(st.mems.size());
    for (const MemStats &m : st.mems) {
        w.str(m.name);
        w.u64(m.reads);
        w.u64(m.writes);
        w.u64(m.inputs);
        w.u64(m.outputs);
    }

    // The file keeps each output latch in its memory's record; in
    // memory the latches are the tail of `vars`.
    const MachineState &ms = snap.state;
    if (ms.vars.size() < ms.mems.size())
        throw SimError("internal: machine state has fewer values than "
                       "memory output latches");
    const size_t numVars = ms.vars.size() - ms.mems.size();
    w.u64(numVars);
    for (size_t i = 0; i < numVars; ++i)
        w.i32(ms.vars[i]);
    w.u64(ms.mems.size());
    for (size_t i = 0; i < ms.mems.size(); ++i) {
        const MemoryState &m = ms.mems[i];
        w.i32(ms.latches()[i]);
        w.i32(m.adr);
        w.i32(m.opn);
        w.u64(m.cells.size());
        for (int32_t c : m.cells)
            w.i32(c);
    }

    uint32_t count = 0;
    count += sections.output.has_value();
    count += sections.trace.has_value();
    count += sections.done;
    count += sections.session.has_value();
    w.u32(count);
    if (sections.output)
        writeSection(w, CheckpointSection::Output, *sections.output);
    if (sections.trace)
        writeSection(w, CheckpointSection::Trace, *sections.trace);
    if (sections.done) {
        writeSection(w, CheckpointSection::Done,
                     std::string(1, sections.watchpointHit ? 1 : 0));
    }
    if (sections.session)
        writeSection(w, CheckpointSection::Session, *sections.session);

    w.u32(crc32(w.data()));
    return w.take();
}

EngineSnapshot
decodeCheckpoint(std::string_view bytes, const std::string &context,
                 CheckpointInfo *info, CheckpointSections *sections)
{
    // Integrity gates before any field is trusted: magic first (is
    // this a checkpoint at all — arbitrary files read as themselves,
    // not as checksum noise), then the CRC over the whole file (did
    // it arrive intact), and only then the fields, version
    // included — a bit-flipped version reports corruption, not a
    // phantom format skew.
    {
        ByteReader probe(bytes, context);
        std::string_view magic =
            probe.bytes(kCheckpointMagic.size(), "file magic");
        if (magic != kCheckpointMagic)
            probe.fail("not an ASIM checkpoint (bad magic)");
        if (bytes.size() < kCheckpointMagic.size() + 8)
            probe.fail("truncated before the checksum trailer");
        uint32_t storedCrc = 0;
        for (int i = 0; i < 4; ++i)
            storedCrc |= static_cast<uint32_t>(static_cast<uint8_t>(
                             bytes[bytes.size() - 4 + i]))
                         << (8 * i);
        uint32_t actualCrc =
            crc32(bytes.substr(0, bytes.size() - 4));
        if (storedCrc != actualCrc)
            probe.fail("checksum mismatch (file corrupt): stored " +
                       std::to_string(storedCrc) + ", computed " +
                       std::to_string(actualCrc));
    }

    ByteReader body(bytes.substr(0, bytes.size() - 4), context);
    body.bytes(kCheckpointMagic.size(), "file magic");

    CheckpointInfo ci;
    ci.version = body.u32("format version");
    if (ci.version == 0 || ci.version > kCheckpointVersion) {
        body.fail("format version " + std::to_string(ci.version) +
                  " is newer than this build supports (max " +
                  std::to_string(kCheckpointVersion) + ")");
    }

    ci.specHash = body.u64("spec identity hash");
    ci.savedBy = body.str("saved-by tag");
    if (ci.savedBy.size() > kMaxNameLen)
        body.fail("saved-by tag implausibly long");

    EngineSnapshot snap;
    snap.cycle = body.u64("cycle count");
    ci.cycle = snap.cycle;
    snap.ioValues = body.u64("input value cursor");
    // Versions 1 and 2 carry a byte cursor into a rendered stdin
    // script, which no engine reads any more.
    if (ci.version <= 2)
        body.u64("input byte cursor");

    snap.stats.cycles = body.u64("stats cycles");
    snap.stats.aluEvals = body.u64("stats ALU evals");
    snap.stats.selEvals = body.u64("stats selector evals");
    uint64_t statMems =
        body.count("stats memory count", kMaxMems, 8 * 4 + 4);
    snap.stats.mems.resize(statMems);
    for (uint64_t i = 0; i < statMems; ++i) {
        MemStats &m = snap.stats.mems[i];
        m.name = body.str("stats memory name");
        if (m.name.size() > kMaxNameLen)
            body.fail("stats memory name implausibly long");
        m.reads = body.u64("stats memory reads");
        m.writes = body.u64("stats memory writes");
        m.inputs = body.u64("stats memory inputs");
        m.outputs = body.u64("stats memory outputs");
    }

    uint64_t vars = body.count("state var count", kMaxVars, 4);
    snap.state.vars.resize(vars);
    for (uint64_t i = 0; i < vars; ++i)
        snap.state.vars[i] = body.i32("state var value");
    uint64_t mems = body.count("state memory count", kMaxMems, 3 * 4 + 8);
    snap.state.vars.resize(vars + mems);
    snap.state.mems.resize(mems);
    for (uint64_t i = 0; i < mems; ++i) {
        MemoryState &m = snap.state.mems[i];
        snap.state.vars[vars + i] = body.i32("memory output latch");
        m.adr = body.i32("memory address latch");
        m.opn = body.i32("memory operation latch");
        uint64_t cells = body.count("memory cell count", kMaxCells, 4);
        m.cells.resize(cells);
        for (uint64_t c = 0; c < cells; ++c)
            m.cells[c] = body.i32("memory cell value");
    }

    CheckpointSections sects;
    if (ci.version >= 2)
        sects = readSections(body);

    if (!body.atEnd())
        body.fail("trailing bytes at the end of the checkpoint (" +
                  std::to_string(body.remaining()) + " unread)");

    if (info)
        *info = ci;
    if (sections)
        *sections = std::move(sects);
    return snap;
}

void
saveCheckpoint(const Engine &engine, const std::string &path,
               std::string_view savedBy,
               const CheckpointSections &sections)
{
    writeFileAtomic(
        path,
        encodeCheckpoint(engine.snapshot(),
                         specIdentityHash(engine.resolved()),
                         savedBy, sections));
}

EngineSnapshot
loadCheckpoint(const std::string &path, const ResolvedSpec &rs,
               CheckpointSections *sections)
{
    CheckpointInfo ci;
    EngineSnapshot snap =
        decodeCheckpoint(readFile(path), path, &ci, sections);

    uint64_t expect = specIdentityHash(rs);
    if (ci.specHash != expect) {
        throw SimError("checkpoint " + path +
                       " was saved for a different specification "
                       "(spec hash " + hex(ci.specHash) +
                       ", this spec is " + hex(expect) + ")");
    }
    if (snap.state.vars.size() !=
            static_cast<size_t>(rs.numVarSlots) + rs.mems.size() ||
        snap.state.mems.size() != rs.mems.size()) {
        throw SimError("checkpoint " + path +
                       " does not match the specification shape "
                       "(component counts differ)");
    }
    for (size_t i = 0; i < rs.mems.size(); ++i) {
        if (snap.state.mems[i].cells.size() !=
            static_cast<size_t>(rs.mems[i].size)) {
            throw SimError("checkpoint " + path +
                           " does not match the specification shape "
                           "(memory <" +
                           std::string(rs.name(rs.mems[i].name)) +
                           "> size differs)");
        }
    }
    return snap;
}

CheckpointInfo
peekCheckpoint(const std::string &path, CheckpointSections *sections)
{
    CheckpointInfo ci;
    decodeCheckpoint(readFile(path), path, &ci, sections);
    return ci;
}

} // namespace asim
