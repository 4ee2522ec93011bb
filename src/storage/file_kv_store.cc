#include "storage/file_kv_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "common/codec.h"
#include "common/fileio.h"
#include "common/framed_log.h"

namespace provledger {
namespace storage {

namespace {

constexpr uint8_t kOpPut = 0;
constexpr uint8_t kOpDelete = 1;

// First u32 of a compressed batch payload. A raw payload starts with its
// op count, which can never plausibly reach 2^32-1, so the two forms are
// unambiguous within one log.
constexpr uint32_t kCompressedPayloadTag = 0xFFFFFFFFu;

// Upper bound on the declared raw size of a compressed batch, relative to
// its compressed body: byte-oriented LZ-style codecs top out well under
// this expansion, so anything bigger is corruption, not data — and must not
// drive a giant allocation.
constexpr size_t kMaxExpansion = 256;

Status Errno(const std::string& what, const std::string& path) {
  return ErrnoStatus(what, path);
}

}  // namespace

FileKvStore::SegmentSet::~SegmentSet() {
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
}

class FileKvStore::Iterator : public KvIterator {
 public:
  Iterator(std::shared_ptr<const Index> snapshot,
           std::shared_ptr<SegmentSet> segments,
           std::function<Result<Bytes>(const Bytes&, size_t)> decompress)
      : snapshot_(std::move(snapshot)),
        segments_(std::move(segments)),
        decompress_(std::move(decompress)),
        it_(snapshot_->begin()) {}

  void Seek(const std::string& target) override {
    it_ = snapshot_->lower_bound(target);
    loaded_ = false;
  }
  void SeekToFirst() override {
    it_ = snapshot_->begin();
    loaded_ = false;
  }
  bool Valid() const override { return it_ != snapshot_->end(); }
  void Next() override {
    ++it_;
    loaded_ = false;
  }
  const std::string& key() const override { return it_->first; }
  /// Lazily pread()s the value at the indexed location. An I/O failure
  /// surfaces as an empty value (the KvIterator interface has no error
  /// channel); segments are append-only, so a location from any snapshot
  /// stays readable while the iterator is alive.
  const Bytes& value() const override {
    if (!loaded_) {
      auto read = ReadValueAt(*segments_, it_->second, decompress_);
      value_ = read.ok() ? std::move(read).value() : Bytes();
      loaded_ = true;
    }
    return value_;
  }

 private:
  std::shared_ptr<const Index> snapshot_;
  std::shared_ptr<SegmentSet> segments_;
  std::function<Result<Bytes>(const Bytes&, size_t)> decompress_;
  Index::const_iterator it_;
  mutable Bytes value_;
  mutable bool loaded_ = false;
};

FileKvStore::FileKvStore(std::string dir, FileKvStoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      segments_(std::make_shared<SegmentSet>()),
      index_(std::make_shared<Index>()) {
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  write_seconds_ = registry->GetHistogram(
      "kv_write_seconds", "WriteBatch apply latency (framing + log append)",
      obs::LatencyBuckets());
  fsync_seconds_ = registry->GetHistogram(
      "kv_fsync_seconds", "Segment fsync latency", obs::LatencyBuckets());
  write_bytes_ = registry->GetHistogram(
      "kv_write_bytes", "Framed bytes appended per WriteBatch",
      obs::SizeBuckets());
  segments_gauge_ =
      registry->GetGauge("kv_segments", "Log segments (active included)");
  live_bytes_gauge_ = registry->GetGauge(
      "kv_live_bytes", "Live key + value bytes (dead log entries excluded)");
}

FileKvStore::~FileKvStore() = default;

Result<std::vector<std::string>> FileKvStore::ListSegments(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() == 10 && name.compare(6, 4, ".log") == 0 &&
        name.find_first_not_of("0123456789") == 6) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  // Zero-padded numbering: lexical order is creation order.
  std::sort(names.begin(), names.end());
  return names;
}

Status FileKvStore::OpenSegment(const std::string& name, bool create) {
  const std::string path = dir_ + "/" + name;
  int flags = O_RDWR | O_APPEND | (create ? O_CREAT | O_EXCL : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Errno("open", path);
  segments_->fds.push_back(fd);
  segment_names_.push_back(name);
  segments_gauge_->Set(static_cast<int64_t>(segments_->fds.size()));
  active_size_ = 0;
  // Make the new directory entry durable before anything points at it; a
  // segment whose entry may vanish at a crash must take no writes.
  if (create && sticky_error_.ok()) sticky_error_ = SyncDir(dir_);
  return sticky_error_;
}

Result<std::unique_ptr<FileKvStore>> FileKvStore::Open(
    const std::string& dir, FileKvStoreOptions options) {
  PROVLEDGER_RETURN_NOT_OK(EnsureDir(dir));
  auto store =
      std::unique_ptr<FileKvStore>(new FileKvStore(dir, options));
  PROVLEDGER_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              ListSegments(dir));
  if (names.empty()) {
    PROVLEDGER_RETURN_NOT_OK(store->OpenSegment("000001.log", /*create=*/true));
    return store;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    PROVLEDGER_RETURN_NOT_OK(store->OpenSegment(names[i], /*create=*/false));
    PROVLEDGER_RETURN_NOT_OK(store->ReplaySegment(
        static_cast<uint32_t>(i), dir + "/" + names[i],
        /*last=*/i + 1 == names.size()));
  }
  return store;
}

Status FileKvStore::ReplaySegment(uint32_t segment, const std::string& path,
                                  bool last) {
  int fd = segments_->fds[segment];
  struct stat st;
  if (::fstat(fd, &st) != 0) return Errno("fstat", path);
  Bytes buf(static_cast<size_t>(st.st_size));
  if (!buf.empty()) {
    ssize_t n = ::pread(fd, buf.data(), buf.size(), 0);
    if (n != static_cast<ssize_t>(buf.size())) return Errno("pread", path);
  }

  size_t pos = 0;
  while (pos < buf.size()) {
    size_t payload_len = 0;
    FrameScan scan = ScanFrameAt(buf, pos, &payload_len);
    if (scan == FrameScan::kCorrupt) {
      // A complete frame failing its CRC was damaged after the fact; valid
      // batches may follow it, so this is never silently truncated.
      return Status::Corruption("bad log record in " + path + " at offset " +
                                std::to_string(pos));
    }
    if (scan == FrameScan::kTorn) {
      // An incomplete tail frame is what a crash mid-append leaves — and
      // only the active (last) segment is ever appended to.
      if (!last) {
        return Status::Corruption("truncated record inside sealed segment " +
                                  path);
      }
      if (::ftruncate(fd, static_cast<off_t>(pos)) != 0) {
        return Errno("ftruncate", path);
      }
      recovered_torn_write_ = true;
      break;
    }

    const size_t payload_pos = pos + kFrameHeaderBytes;
    Bytes payload(buf.begin() + payload_pos,
                  buf.begin() + payload_pos + payload_len);

    // A compressed batch announces itself with the payload tag; the ops are
    // decoded from the decompressed bytes, and the index points at the
    // whole frame payload (the value is sliced back out on read).
    bool compressed = false;
    Bytes raw;
    {
      Decoder probe(payload);
      uint32_t tag = 0;
      if (payload.size() >= 4) PROVLEDGER_RETURN_NOT_OK(probe.GetU32(&tag));
      if (payload.size() >= 4 && tag == kCompressedPayloadTag) {
        compressed = true;
        if (!options_.decompress) {
          return Status::Corruption("compressed batch in " + path +
                                    " but no decompressor configured");
        }
        uint64_t raw_len = 0;
        PROVLEDGER_RETURN_NOT_OK(probe.GetUVarint(&raw_len));
        Bytes body;
        PROVLEDGER_RETURN_NOT_OK(probe.GetRaw(probe.remaining(), &body));
        if (raw_len > (body.size() + 16) * kMaxExpansion) {
          return Status::Corruption("implausible raw size in " + path);
        }
        PROVLEDGER_ASSIGN_OR_RETURN(
            raw, options_.decompress(body, static_cast<size_t>(raw_len)));
      } else {
        raw = std::move(payload);
      }
    }

    Decoder dec(raw);
    uint32_t op_count = 0;
    PROVLEDGER_RETURN_NOT_OK(dec.GetU32(&op_count));
    for (uint32_t i = 0; i < op_count; ++i) {
      uint8_t kind = 0;
      std::string key;
      PROVLEDGER_RETURN_NOT_OK(dec.GetU8(&kind));
      PROVLEDGER_RETURN_NOT_OK(dec.GetString(&key));
      if (kind == kOpPut) {
        // The value starts right after its u32 length prefix; remaining()
        // gives the decoder's position without exposing it directly.
        Bytes value;
        size_t before = dec.remaining();
        PROVLEDGER_RETURN_NOT_OK(dec.GetBytes(&value));
        const size_t inner = (raw.size() - before) + 4;
        ValueLoc loc;
        loc.segment = segment;
        loc.length = static_cast<uint32_t>(value.size());
        if (compressed) {
          loc.offset = payload_pos;
          loc.frame_len = static_cast<uint32_t>(payload_len);
          loc.inner = static_cast<uint32_t>(inner);
        } else {
          loc.offset = payload_pos + inner;
        }
        ApplyToIndex(index_.get(), key, /*is_put=*/true, loc);
      } else if (kind == kOpDelete) {
        ApplyToIndex(index_.get(), key, /*is_put=*/false, ValueLoc());
      } else {
        return Status::Corruption("unknown op kind in " + path);
      }
    }
    if (!dec.AtEnd()) {
      return Status::Corruption("trailing payload bytes in " + path);
    }
    ++replayed_batches_;
    pos = payload_pos + payload_len;
  }
  active_size_ = pos;
  return Status::OK();
}

void FileKvStore::ApplyToIndex(Index* index, const std::string& key,
                               bool is_put, const ValueLoc& loc) {
  auto it = index->find(key);
  if (it != index->end()) {
    live_bytes_ -= key.size() + it->second.length;
    if (!is_put) index->erase(it);
  }
  if (is_put) {
    live_bytes_ += key.size() + loc.length;
    (*index)[key] = loc;
  }
}

FileKvStore::Index& FileKvStore::MutableIndex() {
  if (index_.use_count() > 1) index_ = std::make_shared<Index>(*index_);
  return *index_;
}

Status FileKvStore::RollIfNeeded() {
  if (active_size_ < options_.segment_bytes) return Status::OK();
  char name[32];
  std::snprintf(name, sizeof(name), "%06zu.log", segments_->fds.size() + 1);
  return OpenSegment(name, /*create=*/true);
}

Status FileKvStore::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  // Fail-stop: after a failed fsync or truncate the log may hold unsynced
  // bytes or garbage, so no later batch may land behind them.
  PROVLEDGER_RETURN_NOT_OK(sticky_error_);
  obs::ScopedTimer write_timer(write_seconds_);
  PROVLEDGER_RETURN_NOT_OK(RollIfNeeded());
  const uint32_t segment = static_cast<uint32_t>(segments_->fds.size() - 1);

  // One framed record per batch; value offsets are computed while encoding
  // so the index can point straight into the segment afterwards. Offsets
  // are tracked payload-relative first, since compression (below) decides
  // whether they end up direct or inside a compressed frame.
  Encoder payload;
  payload.PutU32(static_cast<uint32_t>(batch.ops().size()));
  std::vector<std::pair<const WriteBatch::Op*, ValueLoc>> applied;
  applied.reserve(batch.ops().size());
  for (const auto& op : batch.ops()) {
    const bool is_put = op.kind == WriteBatch::Op::Kind::kPut;
    payload.PutU8(is_put ? kOpPut : kOpDelete);
    payload.PutString(op.key);
    ValueLoc loc;
    if (is_put) {
      loc.segment = segment;
      loc.inner = static_cast<uint32_t>(payload.size() + 4);
      loc.length = static_cast<uint32_t>(op.value.size());
      payload.PutBytes(op.value);
    }
    applied.emplace_back(&op, loc);
  }

  // Try the compression hook; keep the raw payload when it does not
  // shrink (dense values would otherwise expand on disk).
  bool compressed = false;
  Encoder compressed_payload;
  if (options_.compress) {
    Bytes body = options_.compress(payload.buffer());
    compressed_payload.PutU32(kCompressedPayloadTag);
    compressed_payload.PutUVarint(payload.size());
    compressed_payload.PutRaw(body);
    compressed = compressed_payload.size() < payload.size();
  }
  const Bytes& final_payload =
      compressed ? compressed_payload.buffer() : payload.buffer();
  for (auto& [op, loc] : applied) {
    if (op->kind != WriteBatch::Op::Kind::kPut) continue;
    if (compressed) {
      loc.offset = active_size_ + kFrameHeaderBytes;
      loc.frame_len = static_cast<uint32_t>(final_payload.size());
    } else {
      loc.offset = active_size_ + kFrameHeaderBytes + loc.inner;
      loc.inner = 0;
    }
  }

  Bytes frame = BuildFrame(final_payload);

  const std::string& path = segment_names_.back();
  int fd = segments_->fds.back();
  Status written = WriteAllFd(fd, frame.data(), frame.size(), path);
  if (written.ok() && options_.sync_writes) {
    obs::ScopedTimer fsync_timer(fsync_seconds_);
    if (::fsync(fd) != 0) sticky_error_ = written = Errno("fsync", path);
  }
  if (!written.ok()) {
    // Drop any partially written frame so the next append re-frames cleanly
    // (a partial record mid-log would otherwise read as corruption).
    if (::ftruncate(fd, static_cast<off_t>(active_size_)) != 0) {
      sticky_error_ = Errno("ftruncate", path);
    }
    return written;
  }
  active_size_ += frame.size();
  write_bytes_->Observe(static_cast<double>(frame.size()));

  // Only after the record is durably framed does the index move.
  Index& index = MutableIndex();
  for (const auto& [op, loc] : applied) {
    ApplyToIndex(&index, op->key,
                 op->kind == WriteBatch::Op::Kind::kPut, loc);
  }
  live_bytes_gauge_->Set(static_cast<int64_t>(live_bytes_));
  return Status::OK();
}

Status FileKvStore::Put(const std::string& key, Bytes value) {
  WriteBatch batch;
  batch.Put(key, std::move(value));
  return Write(batch);
}

Status FileKvStore::Delete(const std::string& key) {
  if (!Has(key)) return Status::OK();  // avoid logging no-op tombstones
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Result<Bytes> FileKvStore::ReadValueAt(
    const SegmentSet& segments, const ValueLoc& loc,
    const std::function<Result<Bytes>(const Bytes&, size_t)>& decompress) {
  if (loc.frame_len == 0) {
    Bytes value(loc.length, 0);
    ssize_t n = ::pread(segments.fds[loc.segment], value.data(), loc.length,
                        static_cast<off_t>(loc.offset));
    if (n != static_cast<ssize_t>(loc.length)) {
      return Status::Corruption("short value read");
    }
    return value;
  }
  // Compressed batch: fetch the whole frame payload, decompress, slice.
  Bytes payload(loc.frame_len, 0);
  ssize_t n = ::pread(segments.fds[loc.segment], payload.data(),
                      loc.frame_len, static_cast<off_t>(loc.offset));
  if (n != static_cast<ssize_t>(loc.frame_len)) {
    return Status::Corruption("short compressed-batch read");
  }
  if (!decompress) {
    return Status::Corruption("compressed batch but no decompressor");
  }
  Decoder dec(payload);
  uint32_t tag = 0;
  uint64_t raw_len = 0;
  Bytes body;
  PROVLEDGER_RETURN_NOT_OK(dec.GetU32(&tag));
  if (tag != kCompressedPayloadTag) {
    return Status::Corruption("compressed batch lost its payload tag");
  }
  PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&raw_len));
  PROVLEDGER_RETURN_NOT_OK(dec.GetRaw(dec.remaining(), &body));
  if (raw_len > (body.size() + 16) * kMaxExpansion) {
    return Status::Corruption("implausible raw size in compressed batch");
  }
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes raw,
                              decompress(body, static_cast<size_t>(raw_len)));
  if (static_cast<size_t>(loc.inner) + loc.length > raw.size()) {
    return Status::Corruption("value location past decompressed batch");
  }
  return Bytes(raw.begin() + loc.inner, raw.begin() + loc.inner + loc.length);
}

Result<Bytes> FileKvStore::Get(const std::string& key) const {
  auto it = index_->find(key);
  if (it == index_->end()) {
    return Status::NotFound("key not found: " + key);
  }
  auto value = ReadValueAt(*segments_, it->second, options_.decompress);
  if (!value.ok()) {
    return Status::Corruption(value.status().message() + " for key: " + key);
  }
  return value;
}

bool FileKvStore::Has(const std::string& key) const {
  return index_->count(key) > 0;
}

std::unique_ptr<KvIterator> FileKvStore::NewIterator() const {
  return std::make_unique<Iterator>(index_, segments_, options_.decompress);
}

Status FileKvStore::Sync() {
  if (segments_->fds.empty()) return Status::OK();
  obs::ScopedTimer fsync_timer(fsync_seconds_);
  if (::fsync(segments_->fds.back()) != 0) {
    sticky_error_ = Errno("fsync", segment_names_.back());
  }
  return sticky_error_;
}

}  // namespace storage
}  // namespace provledger
