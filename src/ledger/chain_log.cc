#include "ledger/chain_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "common/fileio.h"
#include "common/framed_log.h"
#include "prov/columnar.h"

namespace provledger {
namespace ledger {

namespace {

Result<Bytes> ReadFd(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoStatus("fstat", path);
  Bytes buf(static_cast<size_t>(st.st_size));
  if (!buf.empty()) {
    ssize_t n = ::pread(fd, buf.data(), buf.size(), 0);
    if (n != static_cast<ssize_t>(buf.size())) {
      return ErrnoStatus("pread", path);
    }
  }
  return buf;
}

}  // namespace

ChainLog::ChainLog(std::string path, ChainLogOptions options)
    : path_(std::move(path)), options_(options) {
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  append_seconds_ = registry->GetHistogram(
      "chainlog_append_seconds",
      "Block persistence latency (frame + write + optional fsync)",
      obs::LatencyBuckets());
  replay_blocks_total_ = registry->GetCounter(
      "chainlog_replay_blocks_total",
      "Blocks re-validated from the log by Replay()");
  size_gauge_ =
      registry->GetGauge("chainlog_bytes", "Log size on disk, framing included");
}

ChainLog::~ChainLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<ChainLog>> ChainLog::Open(const std::string& path,
                                                 ChainLogOptions options) {
  auto log = std::unique_ptr<ChainLog>(new ChainLog(path, options));
  log->fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (log->fd_ < 0) return ErrnoStatus("open", path);
  PROVLEDGER_RETURN_NOT_OK(log->ScanExisting());
  return log;
}

Status ChainLog::ScanExisting() {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes buf, ReadFd(fd_, path_));
  size_t pos = 0;
  while (pos < buf.size()) {
    size_t payload_len = 0;
    switch (ScanFrameAt(buf, pos, &payload_len)) {
      case FrameScan::kCorrupt:
        // A complete frame that fails its CRC was damaged after the fact;
        // valid blocks may follow it, so never truncate here.
        return Status::Corruption("bad chain log record in " + path_ +
                                  " at offset " + std::to_string(pos));
      case FrameScan::kTorn:
        // A frame running past EOF is the prefix a crash mid-append
        // leaves; drop it so the next Append re-frames cleanly.
        if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
          return ErrnoStatus("ftruncate", path_);
        }
        recovered_torn_write_ = true;
        size_ = pos;
        size_gauge_->Set(static_cast<int64_t>(size_));
        return Status::OK();
      case FrameScan::kValid:
        ++block_count_;
        pos += kFrameHeaderBytes + payload_len;
        break;
    }
  }
  size_ = pos;
  size_gauge_->Set(static_cast<int64_t>(size_));
  return Status::OK();
}

Status ChainLog::Append(const Block& block) {
  // Fail-stop: after a failed fsync or truncate the log may hold unsynced
  // bytes or garbage, so no later block may land behind them.
  PROVLEDGER_RETURN_NOT_OK(sticky_error_);
  obs::ScopedTimer timer(append_seconds_);
  Bytes frame = BuildFrame(options_.columnar_bodies
                               ? prov::columnar::EncodeBlock(block)
                               : block.Encode());
  Status written = WriteAllFd(fd_, frame.data(), frame.size(), path_);
  if (written.ok() && options_.sync_writes && ::fsync(fd_) != 0) {
    sticky_error_ = written = ErrnoStatus("fsync", path_);
  }
  if (!written.ok()) {
    // Drop the partial frame.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      sticky_error_ = ErrnoStatus("ftruncate", path_);
    }
    return written;
  }
  size_ += frame.size();
  ++block_count_;
  size_gauge_->Set(static_cast<int64_t>(size_));
  return Status::OK();
}

Status ChainLog::Replay(Blockchain* chain) {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes buf, ReadFd(fd_, path_));
  size_t pos = 0;
  size_t replayed = 0;
  while (pos < buf.size() && replayed < block_count_) {
    size_t payload_len = 0;
    if (ScanFrameAt(buf, pos, &payload_len) != FrameScan::kValid) {
      return Status::Corruption("bad chain log record in " + path_ +
                                " at offset " + std::to_string(pos));
    }
    Bytes encoded(buf.begin() + pos + kFrameHeaderBytes,
                  buf.begin() + pos + kFrameHeaderBytes + payload_len);
    // DecodeBlock sniffs the columnar magic and falls back to the legacy
    // body format, so old logs replay no matter how this log is configured.
    PROVLEDGER_ASSIGN_OR_RETURN(Block block,
                                prov::columnar::DecodeBlock(encoded));
    Status submitted = chain->SubmitBlock(block);
    // A block the chain already knows is fine — replay is idempotent, so
    // attaching a partially caught-up chain works.
    if (!submitted.ok() && !submitted.IsAlreadyExists()) return submitted;
    ++replayed;
    replay_blocks_total_->Increment();
    pos += kFrameHeaderBytes + payload_len;
  }
  return Status::OK();
}

Status ChainLog::AttachTo(Blockchain* chain) {
  chain->SetBlockSink(nullptr);  // replayed blocks are already persisted
  if (block_count_ == 0 && chain->height() > 0) {
    // Adopting persistence on a chain that already lived in memory:
    // backfill the current main chain so nothing is lost at next restart.
    for (uint64_t h = 1; h <= chain->height(); ++h) {
      const Block* block = chain->PeekBlock(h);
      if (block == nullptr) {
        return Status::Internal("main chain gap at height " +
                                std::to_string(h));
      }
      PROVLEDGER_RETURN_NOT_OK(Append(*block));
    }
  } else {
    PROVLEDGER_RETURN_NOT_OK(Replay(chain));
  }
  chain->SetBlockSink([this](const Block& block) { return Append(block); });
  return Status::OK();
}

Status ChainLog::Sync() {
  if (::fsync(fd_) != 0) sticky_error_ = ErrnoStatus("fsync", path_);
  return sticky_error_;
}

}  // namespace ledger
}  // namespace provledger
