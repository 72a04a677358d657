#include "robust/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "robust/fault_injector.hpp"
#include "robust/file_io.hpp"
#include "util/bitset.hpp"
#include "util/crc32.hpp"

namespace owlcl {

namespace {

using namespace fileio;

constexpr char kMagic[8] = {'O', 'W', 'L', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;

void encodeHeader(unsigned char* h, std::uint64_t ontologyHash,
                  std::uint64_t seed) {
  std::memcpy(h, kMagic, 8);
  putU32(h + 8, kVersion);
  putU64(h + 12, ontologyHash);
  putU64(h + 20, seed);
}

void encodeRecord(unsigned char* r, SettledKind kind, ConceptId x, ConceptId y,
                  std::uint32_t epoch) {
  r[0] = static_cast<unsigned char>(kind);
  r[1] = r[2] = r[3] = 0;
  putU32(r + 4, x);
  putU32(r + 8, y);
  putU32(r + 12, epoch);
  putU32(r + 16, crc32(r, 16));
}

bool validKind(unsigned char k) {
  return k >= static_cast<unsigned char>(SettledKind::kSubsumption) &&
         k <= static_cast<unsigned char>(SettledKind::kUnresolvedConcept);
}

/// Header check on an in-memory journal image. Returns the number of
/// bytes of valid data (header + whole CRC-valid records); -1 on a bad or
/// mismatched header.
long long validPrefixLength(const std::vector<unsigned char>& bytes,
                            std::uint64_t ontologyHash, std::uint64_t seed,
                            std::string* error,
                            std::vector<JournalRecord>* out) {
  if (bytes.size() < ResultJournal::kHeaderBytes) {
    if (error != nullptr) *error = "journal header truncated";
    return -1;
  }
  const unsigned char* h = bytes.data();
  if (std::memcmp(h, kMagic, 8) != 0) {
    if (error != nullptr) *error = "journal magic mismatch";
    return -1;
  }
  if (getU32(h + 28) != crc32(h, 28)) {
    if (error != nullptr) *error = "journal header CRC mismatch";
    return -1;
  }
  if (getU32(h + 8) != kVersion) {
    if (error != nullptr) *error = "journal format version mismatch";
    return -1;
  }
  if (getU64(h + 12) != ontologyHash) {
    if (error != nullptr) *error = "journal belongs to a different ontology";
    return -1;
  }
  if (getU64(h + 20) != seed) {
    if (error != nullptr) *error = "journal belongs to a different seed";
    return -1;
  }
  std::size_t pos = ResultJournal::kHeaderBytes;
  while (pos + ResultJournal::kRecordBytes <= bytes.size()) {
    const unsigned char* r = bytes.data() + pos;
    if (!validKind(r[0]) || getU32(r + 16) != crc32(r, 16)) break;
    if (out != nullptr)
      out->push_back(JournalRecord{static_cast<SettledKind>(r[0]), getU32(r + 4),
                                   getU32(r + 8), getU32(r + 12)});
    pos += ResultJournal::kRecordBytes;
  }
  return static_cast<long long>(pos);
}

}  // namespace

ResultJournal::~ResultJournal() { close(); }

void ResultJournal::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ResultJournal::writeHeader(std::uint64_t ontologyHash, std::uint64_t seed,
                                std::string* error) {
  unsigned char h[kHeaderBytes];
  encodeHeader(h, ontologyHash, seed);
  putU32(h + 28, crc32(h, 28));
  if (!writeAll(fd_, h, kHeaderBytes)) {
    if (error != nullptr) *error = "cannot write journal header";
    return false;
  }
  ::fdatasync(fd_);  // the header anchors everything; always durable
  return true;
}

bool ResultJournal::open(const std::string& path, std::uint64_t ontologyHash,
                         std::uint64_t seed, FsyncPolicy fsync, bool truncate,
                         std::string* error) {
  close();
  std::lock_guard<std::mutex> lock(mu_);
  fsync_ = fsync;
  appends_ = 0;
  writes_ = 0;

  if (!truncate) {
    // Existing journal: validate the header, then cut a torn/corrupt tail
    // so appends extend the valid prefix.
    std::vector<unsigned char> bytes;
    bool exists = false;
    if (!readFile(path, &bytes, &exists)) {
      if (error != nullptr) *error = "cannot read journal: " + path;
      return false;
    }
    if (exists && !bytes.empty()) {
      const long long valid =
          validPrefixLength(bytes, ontologyHash, seed, error, nullptr);
      if (valid < 0) return false;
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd_ < 0) {
        if (error != nullptr) *error = "cannot open journal for append: " + path;
        return false;
      }
      if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0 ||
          ::lseek(fd_, 0, SEEK_END) < 0) {
        if (error != nullptr) *error = "cannot truncate journal tail: " + path;
        ::close(fd_);
        fd_ = -1;
        return false;
      }
      return true;
    }
  }

  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    if (error != nullptr) *error = "cannot create journal: " + path;
    return false;
  }
  if (!writeHeader(ontologyHash, seed, error)) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

void ResultJournal::append(SettledKind kind, ConceptId x, ConceptId y,
                           std::uint32_t epoch) {
  unsigned char r[kRecordBytes];
  encodeRecord(r, kind, x, y, epoch);

  std::lock_guard<std::mutex> lock(mu_);
  writeRecords(r, 1);
}

void ResultJournal::appendRow(SettledKind kind, ConceptId x,
                              const std::uint64_t* words, std::size_t nwords,
                              std::uint32_t epoch) {
  // Encoding and CRCs happen outside the lock, into a per-thread buffer
  // that keeps its capacity across rows.
  const std::size_t count = popcountWords(words, nwords);
  if (count == 0) return;
  thread_local std::vector<unsigned char> buf;
  buf.resize(count * kRecordBytes);
  unsigned char* r = buf.data();
  forEachSetBitInWords(words, nwords, [&](std::size_t y) {
    encodeRecord(r, kind, x, static_cast<ConceptId>(y), epoch);
    r += kRecordBytes;
  });

  std::lock_guard<std::mutex> lock(mu_);
  writeRecords(buf.data(), count);
}

void ResultJournal::writeRecords(const unsigned char* buf, std::size_t count) {
  if (fd_ < 0) return;
  const std::uint64_t first = appends_;
  appends_ += count;
  if (crash_ != nullptr) {
    // Record ordinals drive the drills, so a crash inside a row leaves
    // exactly what one-record-per-write would have left behind.
    for (std::size_t i = 0; i < count; ++i) {
      if (crash_->tornWriteNow(first + i)) {
        // Torn write: the records before it whole, half of this one, then
        // the process dies. Recovery must refuse to parse the fragment.
        writeAll(fd_, buf, i * kRecordBytes + kRecordBytes / 2);
        ::fdatasync(fd_);
        CrashInjector::crash();
      }
      if (crash_->crashAfterAppendNow(first + i)) {
        writeAll(fd_, buf, (i + 1) * kRecordBytes);
        ::fdatasync(fd_);
        CrashInjector::crash();
      }
    }
  }
  writeAll(fd_, buf, count * kRecordBytes);
  ++writes_;
  if (fsync_ == FsyncPolicy::kEveryRecord) ::fdatasync(fd_);
}

void ResultJournal::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0 && fsync_ != FsyncPolicy::kNever) ::fdatasync(fd_);
}

std::uint64_t ResultJournal::appendCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

std::uint64_t ResultJournal::writeCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

bool ResultJournal::replay(const std::string& path, std::uint64_t ontologyHash,
                           std::uint64_t seed, std::vector<JournalRecord>* out,
                           std::string* error) {
  out->clear();
  std::vector<unsigned char> bytes;
  bool exists = false;
  if (!readFile(path, &bytes, &exists)) {
    if (error != nullptr) *error = "cannot read journal: " + path;
    return false;
  }
  if (!exists || bytes.empty()) return true;  // nothing journaled yet
  return validPrefixLength(bytes, ontologyHash, seed, error, out) >= 0;
}

}  // namespace owlcl
