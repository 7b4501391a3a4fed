#include "support/serialize.hh"

#include <array>
#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

namespace asim {

namespace {

/** Write all of `data` to `fd`, retrying short writes and EINTR. */
bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
}

/** fsync the directory holding `path`, so a rename into it is
 *  durable. */
bool
syncParentDir(const std::string &path)
{
    const size_t slash = path.rfind('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    const int fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

void
writeFileAtomic(const std::string &path, std::string_view data)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        throw SimError("cannot write " + tmp);
    const bool written = writeAll(fd, data) && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !written) {
        std::remove(tmp.c_str());
        throw SimError("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SimError("cannot move into place: " + path);
    }
    if (!syncParentDir(path))
        throw SimError("cannot make the rename durable: " + path);
}

uint64_t
fnv1a64(std::string_view data, uint64_t seed)
{
    Fnv1a64 h(seed);
    h.add(data);
    return h.value();
}

namespace {

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

uint32_t
crc32(std::string_view data)
{
    static const std::array<uint32_t, 256> table = makeCrcTable();
    uint32_t crc = 0xffffffffu;
    for (char ch : data)
        crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^
              (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace asim
