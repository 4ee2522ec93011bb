// ChainLog: the binary block persister. Streams every accepted block to an
// append-only log file and reloads the chain from it on startup, making the
// ledger the durable source of truth the paper's provenance systems assume
// (SciChain-style "the chain survives, everything else is an index").
//
// On-disk format: one framed record per block —
//   [u32 encoded_len][u32 crc32(encoding)][Block::Encode() bytes]
// — fsync'd on append (write-ahead of the in-memory chain mutation when
// attached as the chain's block sink). The genesis block is never logged:
// it is derived deterministically from ChainOptions::chain_id, so a log
// written under one chain id refuses to replay onto a chain with another
// (the first block's prev_hash will not match).
//
// Replay goes through Blockchain::SubmitBlock, i.e. every reloaded block is
// re-validated in full (hash links, Merkle roots, signatures, fork choice).
// A restart is therefore also a re-audit of the persisted ledger.
//
// Thread safety: NOT internally synchronized — one ChainLog instance per log
// file, driven by a single owner (the chain's commit path).

#ifndef PROVLEDGER_LEDGER_CHAIN_LOG_H_
#define PROVLEDGER_LEDGER_CHAIN_LOG_H_

#include <memory>
#include <string>

#include "ledger/chain.h"

namespace provledger {
namespace ledger {

/// \brief ChainLog configuration.
struct ChainLogOptions {
  /// fsync after every appended block. Turning it off batches durability
  /// into explicit Sync() calls (bulk-ingest benchmarking).
  bool sync_writes = true;
  /// Persist block bodies in the columnar form (prov/columnar.h): record
  /// payloads stored once through the record columns instead of per-record
  /// canonical bytes. Replay handles both forms regardless — the columnar
  /// body carries its own magic — so logs written either way reload on any
  /// setting, and mixed logs (format flipped mid-life) are fine.
  bool columnar_bodies = true;
  /// Metric registry for the append timer, replay progress counter, and
  /// log-size gauge (nullptr = obs::Registry::Default()).
  obs::Registry* registry = nullptr;
};

/// \brief Append-only durable block log.
class ChainLog {
 public:
  /// Open or create the log file. An incomplete record at the tail — the
  /// prefix a crash mid-append leaves — is truncated away and reported via
  /// recovered_torn_write(); a complete record failing its CRC anywhere is
  /// Corruption (valid blocks may follow it, so it is never truncated).
  static Result<std::unique_ptr<ChainLog>> Open(
      const std::string& path, ChainLogOptions options = ChainLogOptions());

  ~ChainLog();
  ChainLog(const ChainLog&) = delete;
  ChainLog& operator=(const ChainLog&) = delete;

  /// Persist one block (framed append + optional fsync). A failed write
  /// truncates its partial frame away; after a failed fsync or truncate
  /// every later Append and Sync fails with that error.
  Status Append(const Block& block);

  /// Decode every logged block, in log order, and submit it to `chain`
  /// (full validation + fork choice). The chain's block sink is left
  /// untouched — detach it first or blocks would be re-persisted.
  Status Replay(Blockchain* chain);

  /// Restart wiring in one call: Replay() into `chain`, then install this
  /// log as the chain's block sink so every block accepted from now on is
  /// persisted write-ahead. If the log is empty but the chain already has
  /// main-chain blocks (adopting persistence mid-life), those blocks are
  /// backfilled into the log first; side-branch blocks are not.
  Status AttachTo(Blockchain* chain);

  /// Force buffered bytes to stable storage.
  Status Sync();

  /// Blocks currently persisted in the log.
  size_t block_count() const { return block_count_; }
  /// Log size in bytes (framing included).
  uint64_t size_bytes() const { return size_; }
  /// True when Open() discarded a torn record at the log tail.
  bool recovered_torn_write() const { return recovered_torn_write_; }

 private:
  ChainLog(std::string path, ChainLogOptions options);

  /// Scan existing frames, set size_/block_count_, truncate a torn tail.
  Status ScanExisting();

  std::string path_;
  ChainLogOptions options_;
  int fd_ = -1;
  uint64_t size_ = 0;
  size_t block_count_ = 0;
  bool recovered_torn_write_ = false;
  // Set by a failed fsync or truncate; from then on every append returns it.
  Status sticky_error_;
  // Cached registry cells (resolved once in the constructor).
  obs::Histogram* append_seconds_;
  obs::Counter* replay_blocks_total_;
  obs::Gauge* size_gauge_;
};

}  // namespace ledger
}  // namespace provledger

#endif  // PROVLEDGER_LEDGER_CHAIN_LOG_H_
