// FileKvStore: a durable KvStore backed by an append-only segmented log
// (bitcask-style) plus an in-memory key -> value-location index.
//
// Layout: a directory of numbered segment files ("000001.log", ...). Every
// applied WriteBatch becomes exactly one framed log record —
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = u32 op_count, then per op:
//     u8 kind, u32 key_len, key, and for puts u32 value_len, value
//
// — written with a single write() and (by default) fsync'd before the
// in-memory index is touched. A batch is therefore atomic across crashes:
// an incomplete tail record (the prefix a crash mid-write leaves) is
// detected on reopen and truncated away, so either every op of a batch is
// visible after restart or none is. A *complete* record failing its CRC is
// damage, not a crash artifact — that is Corruption, never truncation.
//
// Reads never touch the log sequentially: Get() and iterators pread() the
// value bytes at the indexed location. Segments are immutable once written
// (no compaction yet), so an index snapshot stays valid forever — iterators
// share the index map copy-on-write exactly like MemKvStore, giving O(1)
// snapshot creation with the same documented point-in-time semantics.
//
// Thread safety: NOT internally synchronized — single owner, or external
// locking around every call.

#ifndef PROVLEDGER_STORAGE_FILE_KV_STORE_H_
#define PROVLEDGER_STORAGE_FILE_KV_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/kv_store.h"

namespace provledger {
namespace storage {

/// \brief FileKvStore configuration.
struct FileKvStoreOptions {
  /// Roll to a new segment once the active one exceeds this many bytes.
  size_t segment_bytes = 64u << 20;
  /// fsync the active segment after every applied batch. Turning this off
  /// trades crash durability of the most recent writes for throughput;
  /// Sync() still forces everything out.
  bool sync_writes = true;
  /// Optional per-batch compression: when set, each applied WriteBatch
  /// payload is compressed before framing (kept raw when compression does
  /// not shrink it — both forms coexist in one log). Reads of a compressed
  /// batch decompress the whole batch payload and slice the value out, so
  /// this trades read CPU for disk; point it at LzCompress/LzDecompress
  /// (common/compress.h) for self-similar blob workloads. Reopening a log
  /// that contains compressed batches without `decompress` fails loudly
  /// with Corruption rather than serving garbage.
  std::function<Bytes(const Bytes&)> compress;
  std::function<Result<Bytes>(const Bytes& compressed, size_t raw_size)>
      decompress;
  /// Metric registry for write/fsync timers and the segment gauges
  /// (nullptr = obs::Registry::Default()). Segments are immutable once
  /// written (no compaction yet), so there is no compaction timer to
  /// register.
  obs::Registry* registry = nullptr;
};

/// \brief Durable ordered KV store over an append-only segmented log.
class FileKvStore : public KvStore {
 public:
  /// Open (creating the directory and first segment if needed) and replay
  /// the log into the in-memory index. An incomplete record at the tail of
  /// the active segment — the signature of a crash mid-write — is
  /// truncated away and reported via recovered_torn_write(); a complete
  /// record failing its CRC (anywhere) or a truncated record inside a
  /// sealed segment is Corruption.
  static Result<std::unique_ptr<FileKvStore>> Open(
      const std::string& dir, FileKvStoreOptions options = FileKvStoreOptions());

  ~FileKvStore() override;
  FileKvStore(const FileKvStore&) = delete;
  FileKvStore& operator=(const FileKvStore&) = delete;

  Status Put(const std::string& key, Bytes value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Has(const std::string& key) const override;
  Status Write(const WriteBatch& batch) override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  size_t ApproximateCount() const override { return index_->size(); }
  /// Live key + value bytes (dead log entries excluded).
  size_t ApproximateBytes() const override { return live_bytes_; }

  /// Force all buffered log bytes to stable storage (no-op when
  /// options.sync_writes already syncs per batch).
  Status Sync();

  /// Number of log segments (the active one included).
  size_t segment_count() const { return segments_->fds.size(); }
  /// Batches replayed from the log by Open().
  uint64_t replayed_batches() const { return replayed_batches_; }
  /// True when Open() discarded a torn record at the log tail.
  bool recovered_torn_write() const { return recovered_torn_write_; }

 private:
  /// Where a live value sits in the log. A raw batch indexes the value
  /// bytes directly; a compressed batch indexes the whole frame payload
  /// plus the value's offset inside the decompressed batch.
  struct ValueLoc {
    uint32_t segment = 0;  // index into segments_->fds
    uint64_t offset = 0;   // raw: value offset in the segment;
                           // compressed: offset of the frame payload
    uint32_t length = 0;   // raw (uncompressed) value length
    /// Nonzero marks a compressed batch: the on-disk frame payload length.
    uint32_t frame_len = 0;
    /// Value offset inside the decompressed batch payload.
    uint32_t inner = 0;
  };
  using Index = std::map<std::string, ValueLoc>;

  /// Open segment fds, shared with live iterators so values stay readable
  /// for as long as any snapshot needs them.
  struct SegmentSet {
    std::vector<int> fds;
    ~SegmentSet();
  };

  class Iterator;

  FileKvStore(std::string dir, FileKvStoreOptions options);

  static Result<std::vector<std::string>> ListSegments(const std::string& dir);
  Status OpenSegment(const std::string& name, bool create);
  /// Replay one segment file into the index; `last` enables torn-tail
  /// truncation.
  Status ReplaySegment(uint32_t segment, const std::string& path, bool last);
  /// Apply one decoded op to the index + accounting.
  void ApplyToIndex(Index* index, const std::string& key, bool is_put,
                    const ValueLoc& loc);
  /// Fetch the value bytes at `loc` — a direct pread for raw batches, a
  /// pread + decompress + slice for compressed ones. Static (and taking the
  /// decompressor explicitly) so iterators holding only the SegmentSet can
  /// keep reading after the store is gone.
  static Result<Bytes> ReadValueAt(
      const SegmentSet& segments, const ValueLoc& loc,
      const std::function<Result<Bytes>(const Bytes&, size_t)>& decompress);
  /// The index, detached from live snapshots first (copy-on-write).
  Index& MutableIndex();
  Status RollIfNeeded();

  std::string dir_;
  FileKvStoreOptions options_;
  std::shared_ptr<SegmentSet> segments_;
  /// File names parallel to segments_->fds (for error messages).
  std::vector<std::string> segment_names_;
  uint64_t active_size_ = 0;
  std::shared_ptr<Index> index_;
  size_t live_bytes_ = 0;
  uint64_t replayed_batches_ = 0;
  bool recovered_torn_write_ = false;
  // Set by a failed fsync or truncate; from then on every write returns it.
  Status sticky_error_;
  // Cached registry cells (resolved once in the constructor).
  obs::Histogram* write_seconds_;
  obs::Histogram* fsync_seconds_;
  obs::Histogram* write_bytes_;
  obs::Gauge* segments_gauge_;
  obs::Gauge* live_bytes_gauge_;
};

}  // namespace storage
}  // namespace provledger

#endif  // PROVLEDGER_STORAGE_FILE_KV_STORE_H_
